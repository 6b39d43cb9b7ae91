(* Two-level hierarchical timing wheel: the event kernel's one store
   for pooled cells, near-future packet events and far-future workload
   thunks alike.

   Entries are (time, seq, id) triples held in per-slot
   structure-of-arrays buffers: a float array of absolute fire times, an
   int array of global sequence numbers (the kernel's tie-break) and an
   int array of event-cell ids. Insertion is O(1): the entry's tick
   index [floor (time / tick)] selects a level-0 slot when it lies
   within [slots] ticks of the cursor, a level-1 slot otherwise (times
   beyond the level-1 range clamp to the farthest slot and are refiled
   on cascade). Extraction drains one level-0 slot at a time into a
   sorted batch buffer; the cursor only advances while the batch is
   empty, so entries inserted behind the cursor (same-tick follow-ups,
   delay-zero polls) are merged into the batch by sorted insertion and
   still fire in exact (time, seq) order.

   Level-1 slot [j] is cascaded when the cursor enters span [j]: every
   entry with tick delta below [slots²] is therefore refiled into level
   0 at or before its due tick. Long empty stretches cost nothing per
   tick: when level 0 is empty the cursor jumps to just behind the
   earliest entry of the next non-empty level-1 slot, or, when that
   slot holds only entries clamped from far ahead, to just behind the
   earliest level-1 entry ({!skip}), so an entry 1e9 s ahead is reached
   in a few jumps rather than 1e12 ticks. Steady state allocates
   nothing — slot buffers, the batch and the cascade scratch grow
   geometrically and are then reused. *)

type slot = {
  mutable ts : float array; (* absolute fire times *)
  mutable qs : int array; (* global sequence numbers *)
  mutable ids : int array; (* event cell ids *)
  mutable n : int;
}

type t = {
  tick : float;
  inv_tick : float;
  max_time : float;
  nslots : int;
  (* [nslots] is a power of two, so slot indices are masks and spans
     shifts: no integer division on the insert and refill paths. Tick
     indices and the cursor are never negative. *)
  mask : int; (* nslots - 1 *)
  shift : int; (* log2 nslots *)
  maxd : int; (* nslots² - 1: the farthest tick delta level 1 holds *)
  (* Slot records are materialised lazily on first push: [empty] is a
     shared sentinel that is never mutated (only {!place} pushes, and it
     swaps in a fresh record first), so creating a wheel costs two
     pointer arrays, not 2×[slots] record allocations — wheels are
     created per simulation run, including inside benchmark loops. *)
  empty : slot;
  l0 : slot array;
  l1 : slot array;
  mutable n_l0 : int;
  mutable n_l1 : int;
  mutable cur : int; (* highest tick index already drained *)
  (* Due entries, sorted by (time, seq), consumed from [bhead]. *)
  mutable bts : float array;
  mutable bqs : int array;
  mutable bids : int array;
  mutable bhead : int;
  mutable blen : int;
  (* Cascade scratch (see {!scratch_reserve}). *)
  mutable cts : float array;
  mutable cqs : int array;
  mutable cids : int array;
  (* [insert]'s time argument on its way to the out-of-line body. *)
  sc : float array;
  (* Observability counters. *)
  mutable n_ticks : int;
  mutable n_cascades : int;
  mutable max_occ : int;
}

let fresh_slot () = { ts = [||]; qs = [||]; ids = [||]; n = 0 }

(* [Array.blit] into an int array that lives in the major heap goes
   through the write barrier once per element, since the runtime cannot
   tell the elements are immediates; a typed int store needs none. The
   hot copies (drain, cascade, batch shifts) use this; overlapping
   ranges are handled like memmove. *)
let blit_ints (src : int array) so (dst : int array) d n =
  if src == dst && so < d then
    for i = n - 1 downto 0 do
      Array.unsafe_set dst (d + i) (Array.unsafe_get src (so + i))
    done
  else
    for i = 0 to n - 1 do
      Array.unsafe_set dst (d + i) (Array.unsafe_get src (so + i))
    done

(* 256 slots: the largest count whose two slot arrays are still
   minor-heap allocations (arrays of up to 256 words), which keeps
   creation, paid once per simulation run, about 5x cheaper than at
   512 slots. Level 1 then reaches about 65 s ahead; entries further
   out are clamped into it. *)
let create ?(tick = 1e-3) ?(slots = 256) () =
  if tick <= 0.0 then invalid_arg "Wheel.create: tick must be positive";
  if slots < 2 || slots land (slots - 1) <> 0 then
    invalid_arg "Wheel.create: slots must be a power of two, at least 2";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  let empty = fresh_slot () in
  {
    tick;
    inv_tick = 1.0 /. tick;
    (* Tick indices up to 2^61 leave the cursor arithmetic (cursor plus
       a level-1 span, span rounding) clear of [max_int]. *)
    max_time = tick *. 0x1p61;
    nslots = slots;
    mask = slots - 1;
    shift = log2 slots;
    maxd = (slots * slots) - 1;
    empty;
    l0 = Array.make slots empty;
    l1 = Array.make slots empty;
    n_l0 = 0;
    n_l1 = 0;
    cur = 0;
    bts = [||];
    bqs = [||];
    bids = [||];
    bhead = 0;
    blen = 0;
    cts = [||];
    cqs = [||];
    cids = [||];
    sc = [| 0.0 |];
    n_ticks = 0;
    n_cascades = 0;
    max_occ = 0;
  }

let max_time t = t.max_time
let[@inline] count t = t.blen + t.n_l0 + t.n_l1
let[@inline] is_empty t = count t = 0
let ticks t = t.n_ticks
let cascades t = t.n_cascades
let max_occupancy t = t.max_occ
let[@inline] tick_of t time = int_of_float (time *. t.inv_tick)

(* Float-carrying helpers below are inlined into their callers: a
   non-inlined call would box the [time] argument. Their growth paths,
   which carry no float, stay out of line. *)

let grow_slot s =
  let cap = Array.length s.ts in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let nts = Array.make ncap 0.0 in
  let nqs = Array.make ncap 0 in
  let nids = Array.make ncap 0 in
  Array.blit s.ts 0 nts 0 s.n;
  Array.blit s.qs 0 nqs 0 s.n;
  Array.blit s.ids 0 nids 0 s.n;
  s.ts <- nts;
  s.qs <- nqs;
  s.ids <- nids

let[@inline] slot_push s time seq id =
  if s.n = Array.length s.ts then grow_slot s;
  Array.unsafe_set s.ts s.n time;
  Array.unsafe_set s.qs s.n seq;
  Array.unsafe_set s.ids s.n id;
  s.n <- s.n + 1

(* Make room for [extra] more batch entries past [bhead + blen]:
   shift the live region down to 0 first, grow only if still short. *)
let batch_reserve t extra =
  let cap = Array.length t.bts in
  if t.bhead + t.blen + extra > cap then begin
    if t.bhead > 0 then begin
      Array.blit t.bts t.bhead t.bts 0 t.blen;
      blit_ints t.bqs t.bhead t.bqs 0 t.blen;
      blit_ints t.bids t.bhead t.bids 0 t.blen;
      t.bhead <- 0
    end;
    if t.blen + extra > cap then begin
      let ncap = max 16 (max (t.blen + extra) (2 * cap)) in
      let nts = Array.make ncap 0.0 in
      let nqs = Array.make ncap 0 in
      let nids = Array.make ncap 0 in
      Array.blit t.bts 0 nts 0 t.blen;
      Array.blit t.bqs 0 nqs 0 t.blen;
      Array.blit t.bids 0 nids 0 t.blen;
      t.bts <- nts;
      t.bqs <- nqs;
      t.bids <- nids
    end
  end

(* Sorted insert into the batch, scanning from the front: behind-cursor
   arrivals are typically due now, i.e. near the head. *)
let[@inline] batch_insert t time seq id =
  batch_reserve t 1;
  let ts = t.bts and qs = t.bqs and ids = t.bids in
  let hi = t.bhead + t.blen in
  let p = ref t.bhead in
  while
    !p < hi
    &&
    let pt = Array.unsafe_get ts !p in
    pt < time || (pt = time && Array.unsafe_get qs !p < seq)
  do
    incr p
  done;
  let p = !p in
  Array.blit ts p ts (p + 1) (hi - p);
  blit_ints qs p qs (p + 1) (hi - p);
  blit_ints ids p ids (p + 1) (hi - p);
  (* [batch_reserve] above guarantees room for one more entry, and
     [p <= hi = bhead + blen], so the shifted region and the write at
     [p] both stay inside the buffers. *)
  Array.unsafe_set ts p time;
  Array.unsafe_set qs p seq;
  Array.unsafe_set ids p id;
  t.blen <- t.blen + 1

(* Insertion sort of the batch region by (time, seq); slot buffers are
   small (one tick's worth of events), so this beats anything fancier. *)
let batch_sort t =
  let ts = t.bts and qs = t.bqs and ids = t.bids in
  let lo = t.bhead in
  for i = lo + 1 to lo + t.blen - 1 do
    let time = Array.unsafe_get ts i in
    let seq = Array.unsafe_get qs i in
    let id = Array.unsafe_get ids i in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let jt = Array.unsafe_get ts !j in
      jt > time || (jt = time && Array.unsafe_get qs !j > seq)
    do
      Array.unsafe_set ts (!j + 1) (Array.unsafe_get ts !j);
      Array.unsafe_set qs (!j + 1) (Array.unsafe_get qs !j);
      Array.unsafe_set ids (!j + 1) (Array.unsafe_get ids !j);
      decr j
    done;
    Array.unsafe_set ts (!j + 1) time;
    Array.unsafe_set qs (!j + 1) seq;
    Array.unsafe_set ids (!j + 1) id
  done

(* Route an entry to the batch (behind the cursor), level 0 or level 1.
   Counter-free: shared by insert and cascade refiling. *)
let[@inline] slot_at t level i =
  let s = Array.unsafe_get level i in
  if s != t.empty then s
  else begin
    let s = fresh_slot () in
    Array.unsafe_set level i s;
    s
  end

let[@inline] place t time seq id =
  let tk = tick_of t time in
  if tk <= t.cur then batch_insert t time seq id
  else begin
    let delta = tk - t.cur in
    if delta < t.nslots then begin
      slot_push (slot_at t t.l0 (tk land t.mask)) time seq id;
      t.n_l0 <- t.n_l0 + 1
    end
    else begin
      let tk = if delta > t.maxd then t.cur + t.maxd else tk in
      slot_push (slot_at t t.l1 ((tk lsr t.shift) land t.mask)) time seq id;
      t.n_l1 <- t.n_l1 + 1
    end
  end

(* Out-of-line body of [insert]; the time arrives through [sc]. *)
let insert_sc t seq id =
  let time = Array.unsafe_get t.sc 0 in
  if not (time >= 0.0 && time < t.max_time) then
    invalid_arg "Wheel.insert: time must lie in [0, max_time)";
  (* Empty wheel: rebase the cursor just behind the entry so a sparse
     schedule does not walk every intervening slot. *)
  if t.blen = 0 && t.n_l0 = 0 && t.n_l1 = 0 then begin
    let tk = tick_of t time in
    if tk > t.cur + 1 then t.cur <- tk - 1
  end;
  place t time seq id;
  let c = count t in
  if c > t.max_occ then t.max_occ <- c

(* A thin inlined wrapper, so the kernel's unboxed [time] reaches the
   body through the float array [sc] instead of a boxed argument. *)
let[@inline] insert t ~time ~seq ~id =
  Array.unsafe_set t.sc 0 time;
  insert_sc t seq id

let drain_slot t s =
  let k = s.n in
  batch_reserve t k;
  let base = t.bhead + t.blen in
  Array.blit s.ts 0 t.bts base k;
  blit_ints s.qs 0 t.bqs base k;
  blit_ints s.ids 0 t.bids base k;
  t.blen <- t.blen + k;
  s.n <- 0;
  t.n_l0 <- t.n_l0 - k;
  batch_sort t

(* Cascade scratch: level-1 entries are moved here before refiling,
   because refiling can write back into the level-1 arrays. *)
let scratch_reserve t k =
  if Array.length t.cts < k then begin
    let ncap = max 16 (max k (2 * Array.length t.cts)) in
    t.cts <- Array.make ncap 0.0;
    t.cqs <- Array.make ncap 0;
    t.cids <- Array.make ncap 0
  end

(* Move level-1 slot [s] into the scratch at [at]; returns the new
   scratch length. *)
let take_slot t s at =
  let k = s.n in
  Array.blit s.ts 0 t.cts at k;
  blit_ints s.qs 0 t.cqs at k;
  blit_ints s.ids 0 t.cids at k;
  s.n <- 0;
  t.n_l1 <- t.n_l1 - k;
  at + k

(* Place the first [k] scratch entries relative to the current cursor. *)
let refile t k =
  for i = 0 to k - 1 do
    place t
      (Array.unsafe_get t.cts i)
      (Array.unsafe_get t.cqs i)
      (Array.unsafe_get t.cids i)
  done

(* Refile level-1 slot [s], whose span the cursor has just entered. *)
let cascade t s =
  if s.n > 0 then begin
    t.n_cascades <- t.n_cascades + 1;
    scratch_reserve t s.n;
    refile t (take_slot t s 0)
  end

(* Earliest tick index among slot [s]'s entries. *)
let first_tick t s =
  let first = ref max_int in
  for i = 0 to s.n - 1 do
    let tk = tick_of t (Array.unsafe_get s.ts i) in
    if tk < !first then first := tk
  done;
  !first

(* Level 0 and the batch are empty, and the earliest level-1 slot holds
   only entries clamped past its span: jump the cursor to just behind
   the earliest level-1 entry and refile all of level 1 from there, as
   inserts into a wheel whose cursor sat there. One pass over level 1
   replaces one cascade per [slots²] ticks until that entry is due.
   Every level-1 entry lies past the current span, so the jump never
   moves the cursor back. *)
let skip t =
  scratch_reserve t t.n_l1;
  let k = ref 0 and first = ref max_int in
  for j = 0 to t.nslots - 1 do
    let s = Array.unsafe_get t.l1 j in
    if s.n > 0 then begin
      first := min !first (first_tick t s);
      k := take_slot t s !k
    end
  done;
  t.n_cascades <- t.n_cascades + 1;
  t.cur <- !first - 1;
  refile t !k

(* Advance the cursor until the batch holds at least one entry.
   Precondition: [blen = 0] and [n_l0 + n_l1 > 0]. With entries on
   level 0 the cursor steps slot by slot, cascading each span it
   enters. When level 0 is empty it finds the next span whose level-1
   slot has entries (at most [slots] slot checks). Every entry of that
   slot lies at or past the span's start, and every other level-1
   entry past its end, so when the slot's earliest entry falls inside
   its span the cursor jumps to just behind that entry and refiles the
   slot. Otherwise the slot held only clamped entries, still far
   ahead, and {!skip} jumps to the earliest level-1 entry. *)
let refill t =
  while t.blen = 0 do
    if t.n_l0 > 0 then begin
      t.cur <- t.cur + 1;
      if t.cur land t.mask = 0 then
        cascade t (Array.unsafe_get t.l1 ((t.cur lsr t.shift) land t.mask))
    end
    else begin
      let span = ref ((t.cur lsr t.shift) + 1) in
      while (Array.unsafe_get t.l1 (!span land t.mask)).n = 0 do
        incr span
      done;
      let s = Array.unsafe_get t.l1 (!span land t.mask) in
      let first = first_tick t s in
      if first lsr t.shift = !span then begin
        t.cur <- first - 1;
        cascade t s
      end
      else skip t
    end;
    t.n_ticks <- t.n_ticks + 1;
    let s = Array.unsafe_get t.l0 (t.cur land t.mask) in
    if s.n > 0 then drain_slot t s
  done

let[@inline] prepare t = if t.blen = 0 && t.n_l0 + t.n_l1 > 0 then refill t

(* Unchecked batch-head peeks for the run loop's candidate scan:
   require a prior [prepare] on a non-empty wheel. *)
let[@inline] head_time t = Array.unsafe_get t.bts t.bhead
let[@inline] head_seq t = Array.unsafe_get t.bqs t.bhead

let[@inline] next_time t =
  prepare t;
  if t.blen = 0 then infinity else head_time t

let extract t =
  prepare t;
  if t.blen = 0 then invalid_arg "Wheel.extract: empty wheel";
  let id = Array.unsafe_get t.bids t.bhead in
  t.blen <- t.blen - 1;
  t.bhead <- (if t.blen = 0 then 0 else t.bhead + 1);
  id
