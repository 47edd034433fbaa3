(** Priority queue of timed events (4-ary min-heap).

    Ordered by (time, insertion sequence) so simultaneous events fire in
    insertion order, which keeps the whole simulation deterministic.

    The heap is struct-of-arrays: parallel unboxed [int] arrays for
    time, sequence and payload slot, plus a payload array written once
    per push.  [push]/[pop_exn] allocate nothing (amortized; growth
    doubles the arrays) and sift by storing ints only. *)

type 'a t

val create : unit -> 'a t
(** An empty queue; it grows on demand. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event as [(time, payload)].  Allocates
    the option and tuple; hot loops should use {!next_time} + {!pop_exn}. *)

val pop_exn : 'a t -> 'a
(** Remove and return the earliest event's payload without allocating.
    @raise Invalid_argument if the queue is empty. *)

val next_time : 'a t -> int
(** Timestamp of the earliest event, or [max_int] when empty — the
    non-allocating {!peek_time}. *)

val peek_time : 'a t -> int option
