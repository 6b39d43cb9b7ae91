(* Event kernel: a free-list event pool over a binary heap, plus
   per-source lanes.

   Every scheduled event occupies a pooled cell: a handler id plus an
   unboxed [int] argument, both held in parallel int arrays indexed by
   the cell id. Handler closures are stored once, at {!register}, in
   the [handlers] table; cells and lanes hold only its indices. Every
   per-event store is therefore an int store: no [caml_modify] write
   barrier, and no closure pointer for the major GC to darken when the
   pool arrays live in the major heap. The schedule stores only cell
   ids, so the steady-state schedule/fire cycle allocates nothing.

   Plain thunks ([unit -> unit], the {!at}/{!after} interface) are
   stored in a parallel [thunks] array and dispatched through handler
   [thunk_handler], a per-sim trampoline registered first, so they ride
   the same pooled machinery. Only thunk cells write a pointer.

   Ordering. Every event carries a global sequence number assigned at
   scheduling time. The run loop picks the source (heap or lane) with
   the lexicographically smallest [(time, seq)], so equal-time events
   fire in scheduling order no matter where they live: the firing
   order is that of one sorted queue keyed by [(time, seq)].

   Stores. Every pooled cell, whatever its handler and however far
   ahead, goes into one binary min-{!Heap} on [(time, seq)]. Callers
   with per-source FIFO event streams (e.g. one per network link) can
   push into {e lanes}: SoA ring buffers consumed directly by the run
   loop, skipping the cell pool entirely. They carry the deep streams,
   so the heap stays shallow (a few dozen cells at most on the
   benchmark workloads). A lane push whose time would break the lane's
   monotonicity goes to the heap instead, so lanes are an
   optimisation, never a semantic constraint. *)

let noop_thunk () = ()

(* Handler 0 of every sim: calls the thunk stored for the cell. *)
let thunk_handler = 0

type kernel = Wheel_kernel

(* Supervision guard: budgets checked inside the run loop, plus the
   channel a monitor domain uses to interrupt a run it has decided is
   stalled or over its wall-clock budget. Every sim carries a guard —
   the default one has infinite budgets and private atomics, so the
   per-event cost of supervision is two compares whether or not anyone
   is watching. *)
type guard = {
  g_max_events : int;  (* fired-event budget; [max_int] = unlimited *)
  g_max_sim_time : float;  (* virtual-clock budget; [infinity] = unlimited *)
  g_poison : int Atomic.t;  (* 0 = run, 1 = wall-clock kill, 2 = stall kill *)
  g_hb_events : int Atomic.t;  (* heartbeat: events fired, published ~1/256 *)
  g_hb_sim_us : int Atomic.t;  (* heartbeat: virtual clock in microseconds *)
}

type interrupt = Event_budget | Sim_time_budget | Wall_clock | No_progress

exception Interrupted of interrupt

let make_guard ?(max_events = max_int) ?(max_sim_time = infinity) () =
  {
    g_max_events = max_events;
    g_max_sim_time = max_sim_time;
    g_poison = Atomic.make 0;
    g_hb_events = Atomic.make 0;
    g_hb_sim_us = Atomic.make 0;
  }

(* Per-lane SoA ring buffer. The tail entry's time (the most recently
   pushed) is the monotonicity bound for the next push. *)
type lane_buf = {
  mutable lt : float array; (* fire times *)
  mutable lq : int array; (* global sequence numbers *)
  mutable lfn : int array; (* handler ids *)
  mutable larg : int array;
  mutable head : int;
  mutable len : int;
}

type lane = int
type handler = int

type t = {
  (* Unboxed float scratch: fl.(0) is the virtual clock, fl.(1) the
     run loop's best-candidate time. A plain mutable float field in
     this (mixed) record would box on every store; a float array does
     not. *)
  fl : float array;
  heap : Heap.t;
  mutable lanes : lane_buf array;
  mutable n_lanes : int;
  mutable lane_total : int; (* entries across all lanes *)
  mutable next_seq : int; (* global event sequence number *)
  mutable seq_stride : int; (* > 1 iff this kernel is one shard of many *)
  mutable handlers : (int -> unit) array; (* registered closures *)
  mutable n_handlers : int;
  mutable fns : int array; (* handler id per cell *)
  mutable args : int array;
  mutable thunks : (unit -> unit) array;
  mutable free : int array; (* stack of free cell ids *)
  mutable free_len : int;
  (* Run-loop scratch (see fl above for the float half). *)
  mutable sc_seq : int;
  mutable sc_src : int; (* -1 none, 0 heap, 1+i lane i *)
  mutable guard : guard; (* supervision budgets; default = unlimited *)
  (* Observability counters: plain int bumps, always on (two or three
     integer stores per event — cheap enough not to gate). *)
  mutable n_queued : int; (* entries across heap + lanes *)
  mutable n_scheduled : int;
  mutable n_fired : int;
  mutable max_queued : int;
}

let create () =
  let t =
    {
      fl = Array.make 2 0.0;
      heap = Heap.create ();
      lanes = [||];
      n_lanes = 0;
      lane_total = 0;
      next_seq = 0;
      seq_stride = 1;
      fns = [||];
      args = [||];
      thunks = [||];
      free = [||];
      free_len = 0;
      handlers = [||];
      n_handlers = 0;
      sc_seq = 0;
      sc_src = -1;
      guard = make_guard ();
      n_queued = 0;
      n_scheduled = 0;
      n_fired = 0;
      max_queued = 0;
    }
  in
  let trampoline id = t.thunks.(id) () in
  t.handlers <- Array.make 8 trampoline;
  t.n_handlers <- 1;
  t

let register t fn =
  let n = t.n_handlers in
  if n = Array.length t.handlers then begin
    let a = Array.make (2 * n) fn in
    Array.blit t.handlers 0 a 0 n;
    t.handlers <- a
  end;
  t.handlers.(n) <- fn;
  t.n_handlers <- n + 1;
  n

let no_handler = -1

(* Checked once per schedule so that dispatch can index [handlers]
   unchecked: an id outside the table ([no_handler], or another sim's
   handler past this sim's count) is refused here rather than read out
   of bounds at fire time. *)
let[@inline] check_handler t fn =
  if fn < 0 || fn >= t.n_handlers then
    invalid_arg "Sim: handler not registered with this sim"

let[@inline] now t = t.fl.(0)

let[@inline] reserve_seq t =
  let s = t.next_seq in
  t.next_seq <- s + t.seq_stride;
  s

(* Shard facade: kernel [index] of [count] draws sequence numbers
   [index, index + count, index + 2*count, ...]. The map is affine and
   strictly increasing, so within one shard events keep exactly the
   order a stride-1 kernel would give them, while across shards every
   (time, seq) pair stays globally unique — the property the sharded
   runner's event-time barrier relies on for byte-identical merges. *)
let set_seq_partition t ~index ~count =
  if count <= 0 || index < 0 || index >= count then
    invalid_arg
      (Printf.sprintf "Sim.set_seq_partition: index %d outside [0, %d)" index
         count);
  if t.next_seq <> 0 then
    invalid_arg "Sim.set_seq_partition: events were already scheduled";
  t.next_seq <- index;
  t.seq_stride <- count

let grow_pool t =
  let cap = Array.length t.args in
  let ncap = max 16 (2 * cap) in
  let grow_fn a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  t.fns <- grow_fn t.fns thunk_handler;
  t.args <- grow_fn t.args 0;
  t.thunks <- grow_fn t.thunks noop_thunk;
  let nfree = Array.make ncap 0 in
  Array.blit t.free 0 nfree 0 t.free_len;
  t.free <- nfree;
  for id = cap to ncap - 1 do
    t.free.(t.free_len) <- id;
    t.free_len <- t.free_len + 1
  done

let alloc_cell t =
  if t.free_len = 0 then grow_pool t;
  t.free_len <- t.free_len - 1;
  Array.unsafe_get t.free t.free_len

(* Return a cell to the free list. A thunk cell drops its closure so
   the pool does not retain it; a handler cell holds only ints. Cell
   ids are always in pool bounds by construction, so the accesses are
   unchecked. *)
let release_cell t id =
  if Array.unsafe_get t.fns id = thunk_handler then
    Array.unsafe_set t.thunks id noop_thunk;
  Array.unsafe_set t.free t.free_len id;
  t.free_len <- t.free_len + 1

let note_scheduled t =
  t.n_scheduled <- t.n_scheduled + 1;
  let q = t.n_queued + 1 in
  t.n_queued <- q;
  if q > t.max_queued then t.max_queued <- q

(* Clamp a time in the past to now. [neg_infinity] is refused here,
   before it would be clamped; {!schedule_cell} refuses the other times
   no event can have (NaN, infinite, at or past {!max_time}). *)
let[@inline] clamp_time t time =
  if time < t.fl.(0) then begin
    if time = neg_infinity then invalid_arg "Sim: event time must be finite";
    t.fl.(0)
  end
  else time

(* 2^61 ms, about 2.3e15 s: no simulated event is meant for a later
   time, so one that asks for it is a caller's bug, refused like NaN.
   The bound dates from the timing wheel's tick index, and is kept so
   that the set of accepted times stays the same. *)
let max_time = 0x1p61 *. 1e-3

(* File a fresh cell for handler [fn] on the heap and return its id.
   [time] is checked before a cell is taken, so a refused event counts
   nowhere and holds no cell. Inlined, as is [Heap.insert], so [time]
   reaches the heap's float array unboxed. *)
let[@inline] schedule_cell t ~time ~seq ~fn =
  if not (time < max_time) then
    invalid_arg "Sim: event time must be finite and below Sim.max_time";
  let id = alloc_cell t in
  Heap.insert t.heap ~time ~seq ~id;
  Array.unsafe_set t.fns id fn;
  note_scheduled t;
  id

let[@inline] at_fn t ~time ~fn ~arg =
  check_handler t fn;
  let time = clamp_time t time in
  let id = schedule_cell t ~time ~seq:(reserve_seq t) ~fn in
  Array.unsafe_set t.args id arg

let at t ~time handler =
  let time = clamp_time t time in
  let id = schedule_cell t ~time ~seq:(reserve_seq t) ~fn:thunk_handler in
  t.args.(id) <- id;
  t.thunks.(id) <- handler

let after t ~delay handler = at t ~time:(t.fl.(0) +. delay) handler

(* ---------- lanes ---------- *)

let lane t =
  let lb = { lt = [||]; lq = [||]; lfn = [||]; larg = [||]; head = 0; len = 0 } in
  let cap = Array.length t.lanes in
  if t.n_lanes = cap then begin
    let nlanes = Array.make (max 4 (2 * cap)) lb in
    Array.blit t.lanes 0 nlanes 0 t.n_lanes;
    t.lanes <- nlanes
  end;
  t.lanes.(t.n_lanes) <- lb;
  t.n_lanes <- t.n_lanes + 1;
  t.n_lanes - 1

let grow_lane l =
  let cap = Array.length l.lt in
  let ncap = max 32 (2 * cap) in
  let nt = Array.make ncap 0.0 in
  let nq = Array.make ncap 0 in
  let nf = Array.make ncap thunk_handler in
  let na = Array.make ncap 0 in
  (* Unwrap the ring while copying. *)
  let tail = cap - l.head in
  let first = min l.len tail in
  Array.blit l.lt l.head nt 0 first;
  Array.blit l.lq l.head nq 0 first;
  Array.blit l.lfn l.head nf 0 first;
  Array.blit l.larg l.head na 0 first;
  if l.len > first then begin
    Array.blit l.lt 0 nt first (l.len - first);
    Array.blit l.lq 0 nq first (l.len - first);
    Array.blit l.lfn 0 nf first (l.len - first);
    Array.blit l.larg 0 na first (l.len - first)
  end;
  l.lt <- nt;
  l.lq <- nq;
  l.lfn <- nf;
  l.larg <- na;
  l.head <- 0

let[@inline] lane_push t lane ~time ~seq ~fn ~arg =
  check_handler t fn;
  let time = clamp_time t time in
  let l = t.lanes.(lane) in
  let cap = Array.length l.lt in
  let monotone =
    l.len = 0
    ||
    let ti = l.head + l.len - 1 in
    let ti = if ti >= cap then ti - cap else ti in
    time >= Array.unsafe_get l.lt ti
  in
  if not monotone then begin
    (* Out-of-order arrival (ACK-path noise / reordering / loss
       notifications): file it on the heap, where the carried
       (time, seq) keeps the global order exact. *)
    let id = schedule_cell t ~time ~seq ~fn in
    Array.unsafe_set t.args id arg
  end
  else begin
    if l.len = cap then grow_lane l;
    let cap = Array.length l.lt in
    let i = l.head + l.len in
    let i = if i >= cap then i - cap else i in
    Array.unsafe_set l.lt i time;
    Array.unsafe_set l.lq i seq;
    Array.unsafe_set l.lfn i fn;
    Array.unsafe_set l.larg i arg;
    l.len <- l.len + 1;
    t.lane_total <- t.lane_total + 1;
    note_scheduled t
  end

(* ---------- supervision ---------- *)

let set_guard t g = t.guard <- g
let guard t = t.guard

(* Heartbeat publication + poison check, run every 256 fired events.
   Cold relative to the per-event budget compares, so kept out of line.
   The virtual clock is published in whole microseconds (clamped so an
   [infinity]-timed pathological event cannot produce an undefined
   float->int conversion). *)
let guard_tick t g =
  Atomic.set g.g_hb_events t.n_fired;
  Atomic.set g.g_hb_sim_us (int_of_float (Float.min t.fl.(0) 1e12 *. 1e6));
  let p = Atomic.get g.g_poison in
  if p <> 0 then
    raise (Interrupted (if p = 1 then Wall_clock else No_progress))

(* ---------- run loop ---------- *)

(* Fire a pooled cell extracted from the heap, then recycle it. *)
let fire_cell t id =
  let fn = Array.unsafe_get t.handlers (Array.unsafe_get t.fns id)
  and arg = Array.unsafe_get t.args id in
  t.n_fired <- t.n_fired + 1;
  fn arg;
  release_cell t id

let run ?until t =
  let until_t = match until with Some u -> u | None -> infinity in
  let fl = t.fl in
  let continue = ref true in
  while !continue do
    (* Pick the source holding the smallest (time, seq). *)
    fl.(1) <- infinity;
    t.sc_seq <- max_int;
    t.sc_src <- -1;
    if not (Heap.is_empty t.heap) then begin
      fl.(1) <- Heap.top_time t.heap;
      t.sc_seq <- Heap.top_seq t.heap;
      t.sc_src <- 0
    end;
    for i = 0 to t.n_lanes - 1 do
      let l = Array.unsafe_get t.lanes i in
      if l.len > 0 then begin
        let lt = Array.unsafe_get l.lt l.head in
        if
          lt < fl.(1)
          || (lt = fl.(1) && Array.unsafe_get l.lq l.head < t.sc_seq)
        then begin
          fl.(1) <- lt;
          t.sc_seq <- Array.unsafe_get l.lq l.head;
          t.sc_src <- 1 + i
        end
      end
    done;
    if t.sc_src < 0 then begin
      if until_t > fl.(0) && Float.is_finite until_t then fl.(0) <- until_t;
      continue := false
    end
    else if fl.(1) > until_t then begin
      fl.(0) <- until_t;
      continue := false
    end
    else begin
      fl.(0) <- fl.(1);
      (* Supervision: two compares per event on the default (unlimited)
         guard; the atomic heartbeat/poison exchange runs 1-in-256. The
         raise leaves the pending event queued, so [now]/[events_fired]
         read consistently from the interrupt handler. *)
      let g = t.guard in
      if t.n_fired >= g.g_max_events then raise (Interrupted Event_budget);
      if fl.(0) > g.g_max_sim_time then raise (Interrupted Sim_time_budget);
      if t.n_fired land 255 = 0 then guard_tick t g;
      t.n_queued <- t.n_queued - 1;
      match t.sc_src with
      | 0 -> fire_cell t (Heap.extract t.heap)
      | s ->
          let l = Array.unsafe_get t.lanes (s - 1) in
          let h = l.head in
          let fn = Array.unsafe_get t.handlers (Array.unsafe_get l.lfn h) in
          let arg = Array.unsafe_get l.larg h in
          l.head <- (if h + 1 = Array.length l.lt then 0 else h + 1);
          l.len <- l.len - 1;
          t.lane_total <- t.lane_total - 1;
          t.n_fired <- t.n_fired + 1;
          fn arg
    end
  done

(* Is any event (heap or lane) due at the current instant?
   Pending fire times are never in the past (insertion clamps to now,
   and the run loop fires in order), so every comparison is against the
   current instant. Reuses the [sc_src] scratch so the lane scan needs
   no ref cell. *)
let next_is_now t =
  let now = t.fl.(0) in
  ((not (Heap.is_empty t.heap)) && Heap.top_time t.heap <= now)
  ||
  begin
    t.sc_src <- 0;
    for i = 0 to t.n_lanes - 1 do
      let l = Array.unsafe_get t.lanes i in
      if l.len > 0 && Array.unsafe_get l.lt l.head <= now then t.sc_src <- 1
    done;
    t.sc_src = 1
  end

let pending t = t.n_queued
let events_scheduled t = t.n_scheduled
let events_fired t = t.n_fired
let max_queued t = t.max_queued
