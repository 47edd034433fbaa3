(** Physical frame allocator with NUMA zones and partition regions.

    The HVM segregates physical memory: the ROS sees only its own subset
    while the HRT has access to everything (paper, Section 2).  Frames are
    identified by integer frame numbers; each zone is a contiguous range of
    frames bound to a NUMA node (socket). *)

type region = Ros_region | Hrt_region

type t

val create :
  ?frames_per_zone:int ->
  ?cores_per_socket:int ->
  sockets:int ->
  hrt_fraction:float ->
  unit ->
  t
(** [create ~sockets ~hrt_fraction ()] builds one zone per socket and
    reserves the top [hrt_fraction] of each zone for the HRT partition.
    [cores_per_socket] (default 4) maps cores to their local zone for
    {!alloc_near}. *)

val alloc : t -> ?zone:int -> region -> int
(** Allocate a frame from [region]: local [zone] (a socket id) first, then
    the remaining zones outward in NUMA-distance order (ties to the lowest
    zone id).  With no hint the search starts at zone 0, which is the flat
    allocator's order.  Raises [Out_of_memory] if the region is exhausted
    everywhere. *)

val alloc_near : t -> core:int -> region -> int
(** Allocate by locality: like {!alloc} with the zone of [core]'s socket as
    the preferred zone, so callers never compute raw zone ids. *)

val free : t -> int -> unit
(** Return a frame.  Raises [Invalid_argument] on double free, naming the
    frame and its owning zone. *)

val fallback_order : t -> zone:int -> int list
(** The deterministic zone search order used by {!alloc} for a given
    preferred zone: local first, then by distance, ties to lowest id. *)

val zone_of_core : t -> int -> int
(** The NUMA zone local to a core. *)

val region_of_frame : t -> int -> region
val zone_of_frame : t -> int -> int
val allocated : t -> region -> int
val total : t -> region -> int
val pp : Format.formatter -> t -> unit
