(** Calibrated cycle-cost model of the simulated machine.

    The reference machine is the paper's testbed: a Dell PowerEdge 415 with
    an 8-core AMD Opteron 4122 at 2.2 GHz (two sockets, four cores each).
    Costs that the paper reports directly (Figure 2: event-channel and
    merger latencies) are taken verbatim; the rest are typical x86/Linux
    magnitudes.  Everything is expressed in cycles at 2.2 GHz.

    The record is functional so benchmarks and ablations can run with
    altered models (e.g. symbol-cache on/off, channel-kind comparisons). *)

type t = {
  (* --- traps and mode transitions --- *)
  syscall_trap : int;  (** SYSCALL/SYSRET pair, native kernel entry+exit *)
  vdso_call : int;  (** user-space fast path, no kernel entry *)
  tlb_pressure_penalty : int;
      (** extra cost of a vdso call on a busy, densely-mapped core; the HRT
          core's sparse TLB avoids it (paper: vdso calls are slightly
          {e faster} under Multiverse) *)
  sysret_emulation : int;
      (** Nautilus must emulate SYSRET with a direct [jmp] for the ring-0 to
          ring-0 return (paper, Section 4.4) *)
  redzone_stack_pull : int;  (** stack-pointer pull-down in the syscall stub *)
  interrupt_dispatch : int;  (** vectoring through the IDT, incl. IST switch *)
  signal_deliver : int;  (** building a user signal frame *)
  signal_return : int;  (** [rt_sigreturn] *)
  (* --- virtualization --- *)
  vm_exit : int;  (** one exit/entry round trip *)
  hypercall : int;  (** guest-to-VMM hypercall (bounds channel latency) *)
  nested_fill : int;  (** nested-paging fill on first touch of a guest page *)
  (* --- HVM event channels (paper, Figure 2) --- *)
  async_channel_rtt : int;  (** ~25 K cycles, 11.4 us *)
  sync_channel_same_socket : int;  (** ~790 cycles, 359 ns *)
  sync_channel_cross_socket : int;  (** ~1060 cycles, 482 ns — one hop *)
  channel_hop_multiplier : float;
      (** per-hop latency growth of the synchronous channel beyond one
          socket hop; inert on the paper's 2-socket machine (DESIGN §6) *)
  remote_access : int;
      (** extra cycles {e per socket hop} for a memory access served from a
          remote NUMA zone (DESIGN §6) *)
  merge_address_space : int;  (** ~33 K cycles, 15 us *)
  (* --- memory system --- *)
  page_walk_level : int;  (** per page-table level actually read on a TLB miss *)
  walk_cache_hit : int;
      (** probe + restart overhead when the paging-structure cache lets a
          walk skip its upper levels (Intel SDM 4.10.3) *)
  tlb_fill : int;
  tlb_shootdown_percore : int;  (** IPI + invalidation per remote core *)
  tlb_shootdown_range : int;
      (** one range-batched shootdown (single IPI covering a whole
          munmap/mprotect range) per remote core — amortizes what would be
          [pages * tlb_shootdown_percore] *)
  page_fault_trap : int;  (** #PF dispatch into the kernel *)
  demand_page : int;  (** allocate + zero + map one 4 KiB page *)
  demand_huge_page : int;
      (** allocate + zero + map one 2 MiB page: one trap and one PTE write,
          with the zeroing done by wide streaming stores — far below 512
          small-page faults *)
  huge_split : int;  (** demote one huge leaf to 4 KiB children *)
  cow_copy : int;  (** copy-on-write break of one page *)
  (* --- scheduling and threads --- *)
  context_switch_ros : int;  (** full Linux context switch *)
  context_switch_nk : int;  (** AeroKernel thread switch *)
  thread_create_ros : int;  (** clone + setup *)
  thread_create_nk : int;
      (** Nautilus thread creation; orders of magnitude below Linux (paper,
          Section 2) *)
  timeslice_ros : int;  (** scheduler quantum *)
  (* --- Multiverse runtime --- *)
  hrt_boot : int;  (** AeroKernel boot, "milliseconds" (paper, Section 2) *)
  image_install_per_kb : int;  (** copying the embedded AeroKernel image *)
  symbol_lookup : int;
      (** per-invocation override symbol lookup ("non-trivial overhead",
          paper Section 4.2) *)
  symbol_cache_hit : int;  (** with the ELF-style symbol cache ablation *)
  wrapper_dispatch : int;  (** override wrapper entry/exit *)
}

val default : t

val sync_channel_rtt : t -> distance:int -> int
(** Synchronous event-channel round trip at a given NUMA distance.
    Distances 0 and 1 are the paper's Figure 2 numbers verbatim
    ([sync_channel_same_socket] / [sync_channel_cross_socket]); each hop
    beyond the first scales by [channel_hop_multiplier].  The default
    two-socket machine never exceeds distance 1, so the flat model is
    reproduced bit-for-bit there. *)

val remote_access_cost : t -> distance:int -> int
(** Extra memory-path cycles for an access at a given NUMA distance:
    [remote_access * distance], 0 when local. *)

val pp : Format.formatter -> t -> unit
