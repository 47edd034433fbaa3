type align = Left | Right

type t = {
  headers : string list;
  mutable rows : string list list;
}

let create ~headers = { headers; rows = [] }
let add_row t row = t.rows <- row :: t.rows

let looks_numeric s =
  s <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || String.contains "+-.,eE%x " c) s

let pp ppf t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure t.headers;
  List.iter measure rows;
  (* Per-column alignment, inferred from the data rows. *)
  let aligns =
    Array.init ncols (fun i ->
        let col_numeric =
          List.for_all (fun row ->
              match List.nth_opt row i with
              | Some cell -> looks_numeric cell
              | None -> true)
            rows
        in
        if col_numeric && rows <> [] then Right else Left)
  in
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    let fill = String.make (max 0 n) ' ' in
    match if i < Array.length aligns then aligns.(i) else Left with
    | Left -> cell ^ fill
    | Right -> fill ^ cell
  in
  let render_row row =
    let cells = List.mapi pad row in
    Format.fprintf ppf "| %s |@." (String.concat " | " cells)
  in
  let rule () =
    let dashes = Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths) in
    Format.fprintf ppf "+%s+@." (String.concat "+" dashes)
  in
  rule ();
  render_row t.headers;
  rule ();
  List.iter render_row rows;
  rule ()

let to_string t = Format.asprintf "%a" pp t
