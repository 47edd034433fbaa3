(** The Multiverse "fat binary" (paper, Sections 3.1 and 3.5).

    Compiling with the Multiverse toolchain produces an ordinary-looking
    executable that additionally embeds the AeroKernel image and the
    Multiverse runtime metadata.  At program startup, the runtime parses
    the embedded image out of its own binary and ships it to the HVM.

    We implement a real (byte-level) container format:

    {v
    "MVFB1\n"                                magic
    repeated sections:
      u16  name length | name bytes
      u32  data length | data bytes
    v}

    Integers are little-endian.  Section order is preserved. *)

type t

val empty : t
val add_section : t -> name:string -> data:string -> t
(** Raises [Invalid_argument] on duplicate names or names longer than
    65535 bytes. *)

val section : t -> string -> string option
val section_names : t -> string list
val section_size : t -> string -> int
(** 0 when absent. *)

val encode : t -> string
val decode : string -> (t, string) result
(** Inverse of {!encode}; [Error] describes the corruption. *)

(** {1 Standard section names} *)

val sec_text : string  (* ".text" — the legacy program image *)
val sec_hrt_image : string  (* ".hrt.image" — the embedded AeroKernel *)
val sec_overrides : string  (* ".mv.overrides" — override configuration *)
val sec_init : string  (* ".mv.init" — ordered init-hook names *)
