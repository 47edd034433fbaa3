(** One bench section's result: a title, a JSON value tree and prose
    notes.  Both the printed text and the BENCH_<section>.json file
    render from the tree, field order preserved. *)

type value =
  | Int of int
  | Float of float * int  (** value, decimal places *)
  | Str of string
  | Obj of (string * value) list
  | List of value list

type t = { title : string; fields : (string * value) list; notes : string list }

val to_text : t -> string
(** The section banner, then every value of the tree: scalars as
    [key | value] rows with nested keys joined by ['.'], each list of
    objects as one table with a row per element (a column per element
    when the objects nest).  Then the notes. *)

val write : section:string -> t -> string
(** Write the tree as JSON to [BENCH_<section>.json] in the current
    directory, with ["schema": "multiverse-<section>-bench/2"] prepended
    as the first field, and return that file name. *)
