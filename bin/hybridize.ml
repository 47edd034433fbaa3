(* hybridize: the toolchain step, as a command.

   Packages a program as a Multiverse fat binary (embedded AeroKernel
   image + override configuration + init hooks), prints its layout, and
   optionally writes the binary to disk and parses it back — what the
   Multiverse runtime does at program startup.

     dune exec bin/hybridize.exe -- --name myprog [--image-kb 640]
         [--override "pthread_create=nk_thread_create cost=450"]
         [-o out.mvfb] *)

open Multiverse
module Args = Mv_util.Args

let main name image_kb overrides out =
  let config =
    List.fold_left
      (fun cfg spec ->
        (* split on the FIRST '=' only: the cost=N option also contains one *)
        match String.index_opt spec '=' with
        | Some i -> (
            let legacy = String.sub spec 0 i in
            let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
            match String.split_on_char ' ' rest |> List.filter (( <> ) "") with
            | symbol :: opts ->
                let cost =
                  List.fold_left
                    (fun acc opt ->
                      match String.split_on_char '=' opt with
                      | [ "cost"; v ] -> int_of_string v
                      | _ -> acc)
                    500 opts
                in
                Override_config.add cfg
                  { Override_config.ov_legacy = legacy; ov_symbol = symbol; ov_cost = cost; ov_args = 0 }
            | [] -> cfg)
        | None ->
            Printf.eprintf "ignoring malformed override %S\n" spec;
            cfg)
      Override_config.empty overrides
  in
  let prog = { Toolchain.prog_name = name; prog_main = (fun _ -> ()) } in
  let hx = Toolchain.hybridize ~overrides:config ~image_kb prog in
  let bytes = Fat_binary.encode hx.Toolchain.hx_fat in
  Printf.printf "fat binary for %S: %d bytes\n\n" name (String.length bytes);
  Printf.printf "%-16s %10s\n" "section" "bytes";
  List.iter
    (fun s ->
      Printf.printf "%-16s %10d\n" s (Fat_binary.section_size hx.Toolchain.hx_fat s))
    (Fat_binary.section_names hx.Toolchain.hx_fat);
  Printf.printf "\noverride configuration (defaults are enforced at init):\n%s"
    (match Fat_binary.section hx.Toolchain.hx_fat Fat_binary.sec_overrides with
    | Some "" | None -> "(none)\n"
    | Some text -> text);
  (match out with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      (* Round-trip, as the runtime's startup parser would. *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Fat_binary.decode data with
      | Ok _ -> Printf.printf "\nwrote %s (parses back cleanly)\n" path
      | Error e -> Printf.printf "\nwrote %s but it does NOT parse: %s\n" path e)
  | None -> ());
  0

let () =
  let open Args in
  let term =
    const main
    $ opt string ~default:"app" ~names:[ "name" ] ~docv:"NAME" ~doc:"Program name."
    $ opt int ~default:640 ~names:[ "image-kb" ] ~docv:"KB" ~doc:"AeroKernel image size."
    $ opt_all string ~names:[ "override" ] ~docv:"SPEC" ~doc:"legacy=symbol [cost=N]."
    $ opt_opt string ~names:[ "output"; "o" ] ~docv:"FILE" ~doc:"Write the fat binary to FILE."
  in
  exit
    (run ~name:"hybridize" ~doc:"Package a program as a Multiverse fat binary" term
       (List.tl (Array.to_list Sys.argv)))
