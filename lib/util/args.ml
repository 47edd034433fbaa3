type 'a conv = { cv_parse : string -> ('a, string) result; cv_kind : string }

let string = { cv_parse = (fun s -> Ok s); cv_kind = "string" }

let int =
  {
    cv_parse =
      (fun s ->
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "expected an integer, got %S" s));
    cv_kind = "int";
  }

let float =
  {
    cv_parse =
      (fun s ->
        match float_of_string_opt s with
        | Some f when Float.is_finite f -> Ok f
        | Some _ -> Error (Printf.sprintf "expected a finite number, got %S" s)
        | None -> Error (Printf.sprintf "expected a number, got %S" s));
    cv_kind = "float";
  }

let topology =
  {
    cv_parse =
      (fun s ->
        match String.index_opt s 'x' with
        | None -> Error (Printf.sprintf "expected SOCKETSxCORES (e.g. 4x32), got %S" s)
        | Some i -> (
            let a = String.sub s 0 i
            and b = String.sub s (i + 1) (String.length s - i - 1) in
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some sockets, Some cores when sockets > 0 && cores > 0 ->
                if sockets * cores < 2 then
                  Error
                    (Printf.sprintf
                       "topology %dx%d leaves no ROS core (need at least 2 cores)" sockets
                       cores)
                else Ok (sockets, cores)
            | _ ->
                Error
                  (Printf.sprintf "expected SOCKETSxCORES with positive integers, got %S" s)));
    cv_kind = "topology";
  }

let partitions =
  {
    cv_parse =
      (fun s ->
        let fields = String.split_on_char ',' s in
        let parse f =
          match int_of_string_opt (String.trim f) with
          | Some n when n > 0 -> Ok n
          | Some n -> Error (Printf.sprintf "partition size must be positive, got %d" n)
          | None -> Error (Printf.sprintf "expected a comma-separated list of core counts (e.g. 2,1), got %S" s)
        in
        List.fold_left
          (fun acc f ->
            match (acc, parse f) with
            | Ok sizes, Ok n -> Ok (sizes @ [ n ])
            | (Error _ as e), _ | _, (Error _ as e) -> e)
          (Ok []) fields
        |> function
        | Ok [] -> Error "expected at least one partition size"
        | r -> r);
    cv_kind = "partitions";
  }

let enum alts =
  {
    cv_parse =
      (fun s ->
        match List.assoc_opt s alts with
        | Some v -> Ok v
        | None ->
            Error
              (Printf.sprintf "expected one of %s, got %S"
                 (String.concat " | " (List.map fst alts))
                 s));
    cv_kind = "enum";
  }

type spec =
  | Sflag of { names : string list; doc : string }
  | Sopt of { names : string list; docv : string; doc : string }
  | Spos of { index : int; docv : string; doc : string; required : bool }
  | Spos_all of { docv : string; doc : string }

type store = {
  mutable st_flags : string list;  (* canonical names, one entry per hit *)
  mutable st_opts : (string * string) list;  (* canonical -> raw, latest first *)
  mutable st_pos : string list;  (* reversed *)
}

type 'a t = { specs : spec list; eval : store -> ('a, string) result }

let const v = { specs = []; eval = (fun _ -> Ok v) }

let ( $ ) f x =
  {
    specs = f.specs @ x.specs;
    eval =
      (fun st ->
        match f.eval st with
        | Error _ as e -> e
        | Ok fn -> ( match x.eval st with Ok v -> Ok (fn v) | Error _ as e -> e));
  }

let canonical = function [] -> invalid_arg "Args: empty name list" | n :: _ -> n
let dashed n = if String.length n = 1 then "-" ^ n else "--" ^ n

let flag ~names ~doc =
  let c = canonical names in
  {
    specs = [ Sflag { names; doc } ];
    eval = (fun st -> Ok (List.mem c st.st_flags));
  }

let opt_raw conv ~names ~docv st =
  match List.assoc_opt (canonical names) st.st_opts with
  | None -> Ok None
  | Some raw -> (
      match conv.cv_parse raw with
      | Ok v -> Ok (Some v)
      | Error e ->
          Error (Printf.sprintf "option %s %s: %s" (dashed (canonical names)) docv e))

let opt conv ~default ~names ~docv ~doc =
  {
    specs = [ Sopt { names; docv; doc } ];
    eval =
      (fun st ->
        match opt_raw conv ~names ~docv st with
        | Ok None -> Ok default
        | Ok (Some v) -> Ok v
        | Error _ as e -> e);
  }

let opt_opt conv ~names ~docv ~doc =
  { specs = [ Sopt { names; docv; doc } ]; eval = opt_raw conv ~names ~docv }

let opt_all conv ~names ~docv ~doc =
  let c = canonical names in
  {
    specs = [ Sopt { names; docv; doc } ];
    eval =
      (fun st ->
        let raws =
          List.rev (List.filter_map (fun (k, v) -> if k = c then Some v else None) st.st_opts)
        in
        List.fold_left
          (fun acc raw ->
            match (acc, conv.cv_parse raw) with
            | Ok vs, Ok v -> Ok (vs @ [ v ])
            | Error _, _ -> acc
            | _, Error e ->
                Error (Printf.sprintf "option %s %s: %s" (dashed c) docv e))
          (Ok []) raws);
  }

let pos_nth st index =
  let all = List.rev st.st_pos in
  List.nth_opt all index

let pos conv ~index ~docv ~doc =
  {
    specs = [ Spos { index; docv; doc; required = false } ];
    eval =
      (fun st ->
        match pos_nth st index with
        | None -> Ok None
        | Some raw -> (
            match conv.cv_parse raw with
            | Ok v -> Ok (Some v)
            | Error e -> Error (Printf.sprintf "argument %s: %s" docv e)));
  }

let pos_req conv ~index ~docv ~doc =
  {
    specs = [ Spos { index; docv; doc; required = true } ];
    eval =
      (fun st ->
        match pos_nth st index with
        | None -> Error (Printf.sprintf "missing required argument %s" docv)
        | Some raw -> (
            match conv.cv_parse raw with
            | Ok v -> Ok v
            | Error e -> Error (Printf.sprintf "argument %s: %s" docv e)));
  }

let pos_all conv ~docv ~doc =
  {
    specs = [ Spos_all { docv; doc } ];
    eval =
      (fun st ->
        List.fold_left
          (fun acc raw ->
            match (acc, conv.cv_parse raw) with
            | Ok vs, Ok v -> Ok (vs @ [ v ])
            | Error _, _ -> acc
            | _, Error e -> Error (Printf.sprintf "argument %s: %s" docv e))
          (Ok []) (List.rev st.st_pos));
  }

(* --- help rendering --- *)

let sorted_positionals specs =
  List.filter_map
    (function
      | Spos { index; docv; doc; required } -> Some (index, docv, doc, required)
      | Spos_all { docv; doc } -> Some (max_int, docv ^ "...", doc, false)
      | _ -> None)
    specs
  |> List.sort compare

let usage_line ~name specs =
  let poss =
    List.map
      (fun (_, docv, _, required) -> if required then docv else "[" ^ docv ^ "]")
      (sorted_positionals specs)
  in
  Printf.sprintf "usage: %s [OPTION]...%s" name
    (match poss with [] -> "" | l -> " " ^ String.concat " " l)

let print_help ~name ~doc specs oc =
  Printf.fprintf oc "%s\n\n%s\n" (usage_line ~name specs) doc;
  let poss = sorted_positionals specs in
  if poss <> [] then begin
    Printf.fprintf oc "\narguments:\n";
    List.iter (fun (_, docv, doc, _) -> Printf.fprintf oc "  %-22s %s\n" docv doc) poss
  end;
  let opts = List.filter (function Sflag _ | Sopt _ -> true | _ -> false) specs in
  if opts <> [] then begin
    Printf.fprintf oc "\noptions:\n";
    List.iter
      (function
        | Sflag { names; doc } ->
            Printf.fprintf oc "  %-22s %s\n"
              (String.concat ", " (List.map dashed names))
              doc
        | Sopt { names; docv; doc } ->
            Printf.fprintf oc "  %-22s %s\n"
              (String.concat ", " (List.map dashed names) ^ " " ^ docv)
              doc
        | Spos _ | Spos_all _ -> ())
      opts
  end

(* --- token walk --- *)

let lookup_named specs name =
  List.find_opt
    (function
      | Sflag { names; _ } | Sopt { names; _ } -> List.mem name names
      | Spos _ | Spos_all _ -> false)
    specs

let is_option_token tok =
  String.length tok > 1 && tok.[0] = '-'
  && not (String.length tok > 1 && tok.[1] >= '0' && tok.[1] <= '9')

let strip_dashes tok =
  if String.length tok > 2 && String.sub tok 0 2 = "--" then
    String.sub tok 2 (String.length tok - 2)
  else String.sub tok 1 (String.length tok - 1)

let parse_tokens specs args =
  let st = { st_flags = []; st_opts = []; st_pos = [] } in
  let npos =
    List.fold_left
      (fun n -> function
        | Spos _ when n < max_int -> n + 1
        | Spos_all _ -> max_int
        | _ -> n)
      0 specs
  in
  let rec go = function
    | [] -> Ok st
    | tok :: rest when tok = "--help" || tok = "-h" -> Error (`Help (tok :: rest))
    | tok :: rest when is_option_token tok -> (
        let body = strip_dashes tok in
        let name, inline =
          match String.index_opt body '=' with
          | Some i ->
              ( String.sub body 0 i,
                Some (String.sub body (i + 1) (String.length body - i - 1)) )
          | None -> (body, None)
        in
        match lookup_named specs name with
        | Some (Sflag { names; _ }) ->
            if inline <> None then
              Error (`Msg (Printf.sprintf "%s takes no value" (dashed name)))
            else begin
              st.st_flags <- canonical names :: st.st_flags;
              go rest
            end
        | Some (Sopt { names; docv; _ }) -> (
            match (inline, rest) with
            | Some v, _ ->
                st.st_opts <- (canonical names, v) :: st.st_opts;
                go rest
            | None, v :: rest' ->
                st.st_opts <- (canonical names, v) :: st.st_opts;
                go rest'
            | None, [] ->
                Error
                  (`Msg (Printf.sprintf "option %s needs a %s value" (dashed name) docv)))
        | Some (Spos _ | Spos_all _) | None ->
            Error (`Msg (Printf.sprintf "unknown option %s" tok)))
    | tok :: rest ->
        if List.length st.st_pos >= npos then
          Error (`Msg (Printf.sprintf "unexpected argument %S" tok))
        else begin
          st.st_pos <- tok :: st.st_pos;
          go rest
        end
  in
  go args

let run ~name ~doc term args =
  match parse_tokens term.specs args with
  | Error (`Help _) ->
      print_help ~name ~doc term.specs stdout;
      exit 0
  | Error (`Msg msg) ->
      Printf.eprintf "%s: %s\n%s\n" name msg (usage_line ~name term.specs);
      exit 2
  | Ok st -> (
      match term.eval st with
      | Ok v -> v
      | Error msg ->
          Printf.eprintf "%s: %s\n%s\n" name msg (usage_line ~name term.specs);
          exit 2)

(* --- subcommand groups --- *)

type cmd = { c_name : string; c_doc : string; c_run : group:string -> string list -> int }

let cmd name ~doc term handler =
  {
    c_name = name;
    c_doc = doc;
    c_run =
      (fun ~group args -> handler (run ~name:(group ^ " " ^ name) ~doc term args));
  }

let print_group_help ~name ~doc cmds oc =
  Printf.fprintf oc "usage: %s COMMAND [ARG]...\n\n%s\n\ncommands:\n" name doc;
  List.iter (fun c -> Printf.fprintf oc "  %-16s %s\n" c.c_name c.c_doc) cmds

let run_group ~name ~doc ?default cmds args =
  let find n = List.find_opt (fun c -> c.c_name = n) cmds in
  match args with
  | ("--help" | "-h") :: _ ->
      print_group_help ~name ~doc cmds stdout;
      exit 0
  | first :: rest when find first <> None ->
      (Option.get (find first)).c_run ~group:name rest
  | _ -> (
      match default with
      | Some d -> (
          match find d with
          | Some c -> c.c_run ~group:name args
          | None -> invalid_arg ("Args.run_group: unknown default command " ^ d))
      | None ->
          Printf.eprintf "%s: expected a command (%s)\n" name
            (String.concat " | " (List.map (fun c -> c.c_name) cmds));
          exit 2)
