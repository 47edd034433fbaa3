(* Struct-of-arrays 4-ary min-heap.  The hot loop processes one event per
   [push]/[pop_exn] pair, so the representation is chosen for zero
   allocation and no write barrier per sift level:

   - the heap itself is three parallel unboxed [int array]s — [times],
     [seqs] and [slots] — so a sift moves a hole and stores only ints;
   - each payload is written once, at push, into [payloads.(slot)], and
     never moves while it waits.  Popping a payload pushes its slot onto
     the [free] stack, and the next push takes it back (LIFO).

   A pointer store into an array that has been promoted to the major heap
   goes through [caml_modify], and a young payload adds a remembered-set
   entry; a full remembered set forces a minor collection.  Moving
   payloads at every sift level would pay that at every level and double
   the minor collections of a fabric run at the same minor words.  One
   store per push is the floor.

   [n + nfree] slots have been handed out, so when the free stack is
   empty the next fresh slot is [n].  Popped slots keep a stale reference
   until they are reused; retention is bounded by the heap's high-water
   mark.  The payload array is created from the first pushed element
   (there is no ['a] dummy to pre-fill with). *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> payload slot *)
  mutable payloads : 'a array;  (* slot -> payload; length 0 until the first push *)
  mutable free : int array;  (* stack of popped slots, [nfree] deep *)
  mutable nfree : int;
  mutable n : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    nfree = 0;
    n = 0;
    next_seq = 0;
  }

let is_empty t = t.n = 0
let size t = t.n

let grow t fill =
  let cap = Array.length t.times in
  let ncap = max 16 (cap * 2) in
  let extend a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.slots <- extend t.slots;
  t.free <- extend t.free;
  let p = Array.make ncap fill in
  Array.blit t.payloads 0 p 0 cap;
  t.payloads <- p

let push t ~time payload =
  if t.n = Array.length t.times then grow t payload;
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else t.n
  in
  t.payloads.(slot) <- payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* Sift the hole up.  [seq] is larger than every queued sequence number,
     so on a time tie the new event stays below its parent. *)
  let i = ref t.n in
  t.n <- t.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let tp = times.(parent) in
    if time < tp then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let next_time t = if t.n = 0 then max_int else t.times.(0)

let pop_exn t =
  if t.n = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = slots.(0) in
  t.free.(t.nfree) <- top;
  t.nfree <- t.nfree + 1;
  let n = t.n - 1 in
  t.n <- n;
  if n > 0 then begin
    (* The last entry fills the hole left at the root and sifts down: at
       each level the hole takes the earliest of up to four children. *)
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= n then continue := false
      else begin
        let last = if first + 3 < n then first + 3 else n - 1 in
        let m = ref first in
        let mt = ref times.(first) and ms = ref seqs.(first) in
        for c = first + 1 to last do
          let tc = times.(c) in
          if tc < !mt || (tc = !mt && seqs.(c) < !ms) then begin
            m := c;
            mt := tc;
            ms := seqs.(c)
          end
        done;
        if !mt < time || (!mt = time && !ms < seq) then begin
          times.(!i) <- !mt;
          seqs.(!i) <- !ms;
          slots.(!i) <- slots.(!m);
          i := !m
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  t.payloads.(top)

let pop t =
  if t.n = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, pop_exn t)
  end

let peek_time t = if t.n = 0 then None else Some t.times.(0)
