type t = { sections : (string * string) list (* in order *) }

let magic = "MVFB1\n"

let empty = { sections = [] }

let add_section t ~name ~data =
  if List.mem_assoc name t.sections then
    invalid_arg ("Fat_binary.add_section: duplicate section " ^ name);
  if String.length name > 0xFFFF then invalid_arg "Fat_binary.add_section: name too long";
  { sections = t.sections @ [ (name, data) ] }

let section t name = List.assoc_opt name t.sections
let section_names t = List.map fst t.sections

let section_size t name =
  match section t name with Some d -> String.length d | None -> 0

let put_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

let put_u32 b v =
  put_u16 b (v land 0xFFFF);
  put_u16 b ((v lsr 16) land 0xFFFF)

let encode t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  List.iter
    (fun (name, data) ->
      put_u16 b (String.length name);
      Buffer.add_string b name;
      put_u32 b (String.length data);
      Buffer.add_string b data)
    t.sections;
  Buffer.contents b

let get_u16 s pos = Char.code s.[pos] lor (Char.code s.[pos + 1] lsl 8)

let get_u32 s pos = get_u16 s pos lor (get_u16 s (pos + 2) lsl 16)

let decode s =
  let len = String.length s in
  if len < String.length magic || String.sub s 0 (String.length magic) <> magic then
    Error "bad magic"
  else begin
    let rec go pos acc =
      if pos = len then Ok { sections = List.rev acc }
      else if pos + 2 > len then Error "truncated section name length"
      else begin
        let nlen = get_u16 s pos in
        let pos = pos + 2 in
        if pos + nlen > len then Error "truncated section name"
        else begin
          let name = String.sub s pos nlen in
          let pos = pos + nlen in
          if pos + 4 > len then Error "truncated section data length"
          else begin
            let dlen = get_u32 s pos in
            let pos = pos + 4 in
            if pos + dlen > len then Error ("truncated section data: " ^ name)
            else go (pos + dlen) ((name, String.sub s pos dlen) :: acc)
          end
        end
      end
    in
    go (String.length magic) []
  end

let sec_text = ".text"
let sec_hrt_image = ".hrt.image"
let sec_overrides = ".mv.overrides"
let sec_init = ".mv.init"
