(** State superpositions (paper, Section 3.2).

    Multiverse makes pieces of ROS state appear inside the HRT without the
    HRT implementing them: the user half of the address space, the process
    GDT, and the thread-local-storage base ([%fs]).  The VMM can in
    principle superimpose any state it can see; these are the three the
    paper's implementation uses. *)

val merge_address_space :
  Mv_aerokernel.Nautilus.t -> Mv_ros.Process.t -> unit
(** Copy the lower-half PML4 of the process into the HRT root and shoot
    down HRT TLBs (lower half only).  Charges the measured merger cost
    (~33 K cycles, Figure 2) to the calling thread.  Asserts that huge
    leaves survive the slot copy — the merger shares sub-trees, so the
    ROS's 2M promotions must appear in the HRT at full size.

    Per-partition state: the stale-PML4 merge generation lives on the
    {!Mv_aerokernel.Nautilus.t} instance — one per HRT partition — and the
    process records one shadow root {e per merged partition}
    ({!Mv_ros.Mm.add_shadow_root} deduplicates by root id), so two HRTs
    merging the same process track staleness and receive shootdown
    filtering independently; neither a merge nor a re-merge in one
    partition disturbs the other's generation snapshot. *)

val superimpose_thread_state :
  Mv_aerokernel.Nautilus.t -> Mv_ros.Process.t -> core:int -> unit
(** Mirror the process GDT image and [%fs] base onto an HRT core, so
    user-space linkage (TLS, function calls through the merged lower half)
    works from HRT threads. *)

val verify_superposition :
  Mv_aerokernel.Nautilus.t -> Mv_ros.Process.t -> core:int -> bool
(** Do the HRT core's GDT and [%fs] match the process? (test helper) *)
