(** The simulated physical platform, bundling the pieces every kernel
    needs: the clock/event loop, the executor, core topology, architectural
    per-core state, physical memory, the cost model, and the
    observability stores.

    One machine hosts both the ROS and the HRT; the HVM partitions its
    cores and memory between them. *)

type config = {
  sockets : int;
  cores_per_socket : int;
  partitions : int list;
      (** one HRT partition per entry, of that many cores, carved from the
          top of the core range in spec order (ids 1, 2, ...; see
          {!Mv_hw.Topology.create}); the ROS keeps the rest *)
  huge_pages : bool;
      (** large-page memory path: 1G AeroKernel identity maps, transparent
          2M promotion of big anonymous VMAs, range-batched shootdowns *)
  work_stealing : bool;
      (** deterministic work stealing among the ROS cores
          ({!Exec.set_steal_domain}); off is byte-identical to the
          pre-stealing scheduler *)
}
(** Everything that describes one machine: its geometry, its split into a
    ROS partition and HRT partitions, and its memory and scheduling
    options.  Every run mode, the load generator and the model checker
    build their machines from one of these. *)

val default_config : config
(** The reference box: 2 sockets x 4 cores, one 1-core HRT partition
    ([[1]]), huge pages on, work stealing off. *)

val check_config : config -> (unit, string) result
(** Reject a partition spec that does not fit the geometry — an empty
    partition, or one that leaves no ROS core — with
    {!Mv_hw.Topology.check_spec}'s message.  The binaries run this on the
    configuration they build from their flags before building anything;
    {!create} raises [Invalid_argument] on a config it rejects. *)

type t = {
  sim : Sim.t;
  exec : Exec.t;
  topo : Mv_hw.Topology.t;
  costs : Mv_hw.Costs.t;
  phys : Mv_hw.Phys_mem.t;
  cpus : Mv_hw.Cpu.t array;
  trace : Trace.t;  (** the flat event records; enable with {!set_tracing} *)
  obs : Mv_obs.Tracer.t;
      (** the span tracer: causal, typed observability across the
          ROS<->HRT boundary; enable with {!set_tracing} *)
  metrics : Mv_obs.Metrics.t;
      (** per-subsystem counters/gauges/latencies; the fabric and its
          event channels update their slots here live *)
  zero_frame : int;  (** the shared all-zeroes frame used for anonymous reads *)
  config : config;  (** what the machine was built from *)
}

val create : ?config:config -> unit -> t
(** Build a machine at 2.2 GHz from [config] (default {!default_config})
    with the reference cost model ({!Mv_hw.Costs.default}).  The top
    quarter of each NUMA zone's frames is reserved for the HRT. *)

val apply_core_params : t -> core:int -> unit
(** Re-derive one core's scheduling parameters (switch cost, preemption
    slice) from its {e current} topology role — run by the lending
    protocol after {!Mv_hw.Topology.reassign} moves the core across the
    ROS/HRT boundary. *)

val refresh_steal_domain : t -> unit
(** Recompute the work-stealing domain from the current ROS core set
    (no-op when stealing is off).  Lending must call this so a lent core
    neither keeps stealing for its old partition nor is stolen from. *)

val charge : t -> int -> unit
(** Charge cycles to the running thread (see {!Exec.charge}). *)

val now : t -> Mv_util.Cycles.t
(** The running thread's local virtual time, or the event time outside
    thread context. *)

val cpu_of_current : t -> Mv_hw.Cpu.t
(** Architectural state of the core the current thread runs on. *)

val alloc_frame : t -> Mv_hw.Phys_mem.region -> int
(** Allocate a physical frame NUMA-locally: from a thread, the frame
    comes from the zone of the core the thread runs on
    ({!Mv_hw.Phys_mem.alloc_near}); outside thread context this is
    [Phys_mem.alloc]. *)

val mem_access_cost : t -> core:int -> frame:int -> Mv_util.Cycles.t
(** Extra memory-path cycles for [core] touching [frame]:
    [costs.remote_access] per socket hop between the core's socket and the
    frame's NUMA zone, 0 when local.  Nothing in the simulated memory path
    charges it; only the [numa] bench section prices its frame placements
    with it, on top of the flat MMU costs. *)

val emit : t -> Trace.payload -> unit
(** Record a typed event at the current virtual time on the current
    thread's track.  With tracing off this is one branch: neither the
    time nor the track is read. *)

val set_tracing : t -> bool -> unit
(** Enable/disable the flat trace and the span tracer together. *)
