(** The built-in scenario registry (see {!Scenario}).

    - [racy-wakeup] {e (expected bug)}: a seeded lost-wakeup at the
      executor level; FIFO passes, picking the consumer first at the first
      choice point deadlocks it (minimal trace [[1]]).
    - [ping-pong-async] / [ping-pong-sync]: event-channel round trips;
      at-most-once payload execution under drop/delay/duplicate faults.
    - [broken-dedup] {e (expected bug)}: the same protocol with
      server-side dedup disabled; a duplicated delivery runs a payload
      twice.
    - [boot-handshake]: full-stack boot + one forwarded syscall under boot
      stalls and EAGAIN injection.
    - [group-respawn]: execution-group spawn/join while partners are
      killed; the watchdog respawn must converge and joins complete.
    - [merge-fault]: address-space merge with forwarded lower-half page
      faults over a lossy channel.
    - [work-steal]: deterministic work stealing across per-core runqueues;
      no lost wakeups, no fiber on two queues at once, FIFO within a
      runqueue, and steals never cross the ROS/HRT partition boundary.
    - [repartition]: dynamic core lending between two HRT partitions
      ([2;1] geometry): the lent core's runqueue drains FIFO onto a
      sibling, in-flight wake-enqueues follow the re-homed threads, no
      fiber is stranded, every core belongs to exactly one partition at
      every step, fabric endpoints re-route, and the reclaim returns the
      core to its home partition. *)

val all_scenarios : Scenario.t list
val find : string -> Scenario.t option

val run_full :
  ?options:Multiverse.Toolchain.mv_options ->
  name:string ->
  expect_stdout:string ->
  extra_checks:(Multiverse.Runtime.t -> Scenario.outcome) list ->
  Multiverse.Toolchain.program ->
  strategy:Strategy.t ->
  faults:Mv_faults.Fault_plan.t ->
  Scenario.outcome
(** The full-stack scenario body: hybridize the program, build the whole
    stack on the installed machine ({!Scenario.machine}) with
    {!Multiverse.Toolchain.setup_multiverse}, run it bounded under the
    strategy and fault plan, then check quiescence, a zero exit code, the
    expected stdout and each of [extra_checks] against the runtime.
    [boot-handshake], [group-respawn], [merge-fault] and [multi-group] are
    this with their own programs and checks. *)
