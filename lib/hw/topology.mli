(** Core and socket topology of the simulated machine.

    The reference machine has two sockets with four cores each (AMD Opteron
    4122).  Multiverse partitions the cores of one HVM virtual machine into
    a ROS partition (id 0) and one or more HRT partitions (ids 1..N), each
    a first-class {!Partition.t} handle; event-channel latency depends on
    whether the communicating cores share a socket.  Core ownership is
    dynamic: {!reassign} moves a core between partitions at runtime (the
    HVM's core-lending protocol), while {!home_of} remembers where it was
    carved at creation so a loan can be reclaimed. *)

type role = Ros_core | Hrt_core

type core = {
  core_id : int;
  socket : int;
  mutable role : role;
  mutable part : Partition.id;  (** current owning partition *)
  home : Partition.id;  (** partition assigned at creation *)
}

type t

val check_spec : sockets:int -> cores_per_socket:int -> int list -> (unit, string) result
(** Whether a partition spec fits a [sockets x cores_per_socket] machine:
    every partition needs at least one core and the ROS at least one
    left over.  The error names the offending spec, e.g. ["partition spec
    [8] leaves no ROS core on the 2x4 machine"].  {!create} and
    [Machine.check_config] both run this check. *)

val create : ?sockets:int -> ?cores_per_socket:int -> ?hrt_parts:int list -> unit -> t
(** [create ~hrt_parts ()] builds the machine and carves one HRT partition
    per entry of [hrt_parts] (per-partition core counts, default [[1]])
    from the top of the core range in spec order; the ROS keeps the rest,
    including core 0, where the control process runs.  [~hrt_parts:[2;1]]
    on 2x4 gives partition 1 cores 5,6 and partition 2 core 7.  Default
    geometry is 2 sockets x 4 cores.  Raises [Invalid_argument] with
    {!check_spec}'s message, prefixed ["Topology.create: "], when the spec
    does not fit. *)

val ncores : t -> int
val nsockets : t -> int
val cores_per_socket : t -> int
val core : t -> int -> core
val same_socket : t -> int -> int -> bool

val distance : t -> int -> int -> int
(** [distance t a b] is the NUMA distance between cores [a] and [b] in
    socket hops: 0 on the same socket, 1 for adjacent sockets, and so on.
    Sockets form a line interconnect, so the hop count is the difference of
    the socket indices.  At the default two-socket geometry this carries
    exactly the information of {!same_socket}. *)

val socket_distance : t -> int -> int -> int
(** Distance in hops between two {e sockets} (the matrix underlying
    {!distance}). *)

(** [socket_of t i] is the socket index of core [i]. *)
val socket_of : t -> int -> int

val nearest_ros_core : t -> rotate:int -> int -> int
(** [nearest_ros_core t ~rotate core] is a ROS core at the smallest NUMA
    {!distance} from [core].  When several ROS cores tie, the
    [(rotate mod k)]-th of the [k] tied cores (ascending ids) is chosen, so
    callers passing a group index spread same-socket groups over that
    socket's ROS cores.  This is the server-core rule of affine
    placement. *)

(** {1 Partitions} *)

val nparts : t -> int
(** Number of partitions including the ROS (so 1 + number of HRT
    partitions). *)

val partition : t -> Partition.id -> Partition.t
(** The partition handle for [pid].
    @raise Invalid_argument naming the pid when out of range. *)

val partitions : t -> Partition.t list
(** All partition handles, ROS first, in id order. *)

val hrt_partitions : t -> Partition.t list
(** The HRT partition handles, in id order. *)

val cores_of : t -> Partition.id -> int list
(** The cores {e currently} owned by a partition, ascending: partition 0
    is the ROS, [cores_of t 1] is the first (default) HRT partition.
    @raise Invalid_argument naming the pid when out of range. *)

val partition_of : t -> int -> Partition.id
(** The partition currently owning a core. *)

val home_of : t -> int -> Partition.id
(** The partition a core belonged to at creation (the reclaim target for
    a lent core). *)

val reassign : t -> core:int -> Partition.id -> unit
(** Move a core to another partition, updating both handles and the core's
    [role] to the destination's kind.  No-op if already owned.  This is the
    topology half of the lending protocol — {!Mv_hvm.Hvm.lend_core} layers
    runqueue draining and fabric re-homing on top.
    @raise Invalid_argument on an unknown partition id. *)

val ros_cores : t -> int list
(** [ros_cores t] = [cores_of t Partition.ros_id]. *)

val role : t -> int -> role
val pp : Format.formatter -> t -> unit
