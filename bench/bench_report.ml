(* One bench section's result, and its two renderings.

   A section measures once and returns a title, a JSON value tree and
   prose notes.  The text it prints and its BENCH_<section>.json file
   are both rendered from that one tree, so they cannot disagree.  The
   JSON is hand-rolled (the image carries no JSON library):
   deterministic field order, two-space indent. *)

type value =
  | Int of int
  | Float of float * int  (* value, decimal places *)
  | Str of string
  | Obj of (string * value) list
  | List of value list

type t = { title : string; fields : (string * value) list; notes : string list }

let schema_version = 2

let rec emit buf indent = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float (v, dp) -> Buffer.add_string buf (Printf.sprintf "%.*f" dp v)
  | Str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | Obj fields ->
      Buffer.add_string buf "{\n";
      let pad = String.make (indent + 2) ' ' in
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_string buf (Printf.sprintf "%S: " k);
          emit buf (indent + 2) v)
        fields;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_string buf "}"
  | List items ->
      Buffer.add_string buf "[\n";
      let pad = String.make (indent + 2) ' ' in
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          emit buf (indent + 2) v)
        items;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_string buf "]"

let write ~section r =
  let buf = Buffer.create 1024 in
  let schema = Printf.sprintf "multiverse-%s-bench/%d" section schema_version in
  emit buf 0 (Obj (("schema", Str schema) :: r.fields));
  Buffer.add_char buf '\n';
  let path = Printf.sprintf "BENCH_%s.json" section in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
  path

(* The text: scalars reached through objects print as [key | value]
   rows, nested keys joined by '.'; a list of objects prints as one table
   under its key, a row per element and a column per (dotted) leaf.  A
   list of nested objects would be too wide that way, so it prints
   transposed: a row per leaf, a column per element. *)

let join prefix k = if prefix = "" then k else prefix ^ "." ^ k

let rec cell = function
  | Int n -> string_of_int n
  | Float (v, dp) -> Printf.sprintf "%.*f" dp v
  | Str s -> s
  | List vs -> "[" ^ String.concat ", " (List.map cell vs) ^ "]"
  | Obj fs -> "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ ": " ^ cell v) fs) ^ "}"

let rec leaves prefix = function
  | Obj fields -> List.concat_map (fun (k, v) -> leaves (join prefix k) v) fields
  | v -> [ (prefix, cell v) ]

let table headers rows =
  let t = Mv_util.Table.create ~headers in
  List.iter (Mv_util.Table.add_row t) rows;
  Mv_util.Table.to_string t

let to_text r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "\n======== %s ========\n" r.title;
  let pending = ref [] in
  let flush () =
    if !pending <> [] then
      Buffer.add_string buf (table [ "key"; "value" ] (List.rev_map (fun (k, v) -> [ k; v ]) !pending));
    pending := []
  in
  let rec walk prefix = function
    | Obj fields -> List.iter (fun (k, v) -> walk (join prefix k) v) fields
    | List (Obj _ :: _ as rows) ->
        flush ();
        let rows = List.map (leaves "") rows in
        let columns =
          List.fold_left
            (fun cols row ->
              cols @ List.filter (fun k -> not (List.mem k cols)) (List.map fst row))
            [] rows
        in
        let get k row = Option.value ~default:"" (List.assoc_opt k row) in
        Printf.bprintf buf "%s:\n%s" prefix
          (if List.exists (fun k -> String.contains k '.') columns then
             table
               ("key" :: List.mapi (fun i _ -> string_of_int i) rows)
               (List.map (fun k -> k :: List.map (get k) rows) columns)
           else table columns (List.map (fun row -> List.map (fun k -> get k row) columns) rows))
    | v -> pending := (prefix, cell v) :: !pending
  in
  walk "" (Obj r.fields);
  flush ();
  List.iter (fun note -> Printf.bprintf buf "%s\n" note) r.notes;
  Buffer.contents buf
