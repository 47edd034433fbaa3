(** ASCII table rendering for benchmark and report output. *)

type t

val create : headers:string list -> t
(** A table with the given column headers.  A column whose data cells all
    look numeric is right-aligned, any other left-aligned. *)

val add_row : t -> string list -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
