(* The ACK log is a sequence of fixed-size chunks, each one float array
   with stride 2: entry [i] lives in chunk [i / chunk_len], at offset
   [2 (i mod chunk_len)], as its ACK time and RTT. A full log takes
   another chunk rather than doubling into a copy, so a long run leaves
   no outgrown arrays behind for the major heap to hold. The log holds
   [acked] entries (every ACK is logged); slots past them are never
   read.

   An entry's size is implied to be [Units.mtu]: every runner packet
   but a finite flow's tail is one MTU, so a bytes column would be
   nearly all one value and a third of the log. Any other size goes
   into a sparse side table of (entry index, size) pairs in two int
   arrays, [ex_idx] and [ex_size]. Entries are appended in order, so
   [ex_idx] is strictly increasing and windows find their slice of it
   by binary search. The table is empty arrays until the first non-MTU
   ACK and grows by doubling. *)
let stride = 2
let chunk_bits = 10
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

type t = {
  mutable sent : int;
  mutable acked : int;
  mutable lost : int;
  mutable dup_acked : int;
  (* Single-cell float array: a mutable float field in this mixed record
     would box on every per-ACK accumulation. *)
  bytes_acked_c : float array;
  mutable lost_by_hop : int array; (* indexed by link id; grown on demand *)
  mutable chunks : float array array; (* the first [n_chunks] are in use *)
  mutable n_chunks : int;
  mutable ex_idx : int array; (* the first [n_ex] are in use *)
  mutable ex_size : int array;
  mutable n_ex : int;
}

let new_chunk () = Array.create_float (stride * chunk_len)

let create () =
  {
    sent = 0;
    acked = 0;
    lost = 0;
    dup_acked = 0;
    bytes_acked_c = [| 0.0 |];
    lost_by_hop = [||];
    chunks = [| new_chunk () |];
    n_chunks = 1;
    ex_idx = [||];
    ex_size = [||];
    n_ex = 0;
  }

let clear t =
  t.sent <- 0;
  t.acked <- 0;
  t.lost <- 0;
  t.dup_acked <- 0;
  t.bytes_acked_c.(0) <- 0.0;
  Array.fill t.lost_by_hop 0 (Array.length t.lost_by_hop) 0;
  t.n_ex <- 0

let[@inline] record_sent t ~now:_ ~size:_ = t.sent <- t.sent + 1

let add_chunk t =
  if t.n_chunks = Array.length t.chunks then begin
    let chunks = Array.make (2 * t.n_chunks) [||] in
    Array.blit t.chunks 0 chunks 0 t.n_chunks;
    t.chunks <- chunks
  end;
  t.chunks.(t.n_chunks) <- new_chunk ();
  t.n_chunks <- t.n_chunks + 1

let grow a n =
  let b = Array.make (max 8 (2 * n)) 0 in
  Array.blit a 0 b 0 n;
  b

(* Entry [i] was [size] bytes, not one MTU. *)
let add_exception t i size =
  let n = t.n_ex in
  if n = Array.length t.ex_idx then begin
    t.ex_idx <- grow t.ex_idx n;
    t.ex_size <- grow t.ex_size n
  end;
  t.ex_idx.(n) <- i;
  t.ex_size.(n) <- size;
  t.n_ex <- n + 1

let[@inline] record_ack t ~now ~size ~rtt =
  let i = t.acked in
  if i lsr chunk_bits = t.n_chunks then add_chunk t;
  if size <> Units.mtu then add_exception t i size;
  t.acked <- i + 1;
  t.bytes_acked_c.(0) <- t.bytes_acked_c.(0) +. float_of_int size;
  (* The guard above makes entry [i]'s chunk exist. *)
  let c = Array.unsafe_get t.chunks (i lsr chunk_bits) in
  let j = stride * (i land chunk_mask) in
  Array.unsafe_set c j now;
  Array.unsafe_set c (j + 1) rtt

let record_loss ?(hop = 0) t ~size:_ =
  if hop < 0 then invalid_arg "Flow_stats.record_loss: negative hop";
  t.lost <- t.lost + 1;
  if hop >= Array.length t.lost_by_hop then begin
    let cap = max (hop + 1) (max 4 (2 * Array.length t.lost_by_hop)) in
    let a = Array.make cap 0 in
    Array.blit t.lost_by_hop 0 a 0 (Array.length t.lost_by_hop);
    t.lost_by_hop <- a
  end;
  t.lost_by_hop.(hop) <- t.lost_by_hop.(hop) + 1

let record_dup_ack t = t.dup_acked <- t.dup_acked + 1
let packets_sent t = t.sent
let packets_acked t = t.acked
let packets_lost t = t.lost

let packets_lost_at t ~hop =
  if hop < 0 || hop >= Array.length t.lost_by_hop then 0
  else t.lost_by_hop.(hop)

let losses_by_hop t =
  (* Trim trailing zero entries so the result is independent of the
     growth policy. *)
  let n = ref (Array.length t.lost_by_hop) in
  while !n > 0 && t.lost_by_hop.(!n - 1) = 0 do
    decr n
  done;
  Array.sub t.lost_by_hop 0 !n
let packets_dup_acked t = t.dup_acked
let bytes_acked t = t.bytes_acked_c.(0)

let loss_fraction t =
  if t.sent = 0 then 0.0 else float_of_int t.lost /. float_of_int t.sent

(* Field [k] (0 = time, 1 = RTT) of entry [i < acked]. *)
let[@inline] field t i k =
  t.chunks.(i lsr chunk_bits).((stride * (i land chunk_mask)) + k)

let[@inline] time t i = field t i 0

(* Index of first ack at or after [time]. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.acked in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if time t mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of the first side-table entry at or after entry [i]. *)
let ex_lower_bound t i =
  let lo = ref 0 and hi = ref t.n_ex in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ex_idx.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bytes of entries [i0, i1): one MTU each, corrected by the side-table
   entries among them. Sizes are ints and every partial sum stays far
   below 2^53, so this int sum converted once is the float sum of the
   entries taken left to right, bit for bit. *)
let window_bytes t ~t0 ~t1 =
  let i0 = lower_bound t t0 and i1 = lower_bound t t1 in
  let sum = ref ((i1 - i0) * Units.mtu) in
  for e = ex_lower_bound t i0 to ex_lower_bound t i1 - 1 do
    sum := !sum + t.ex_size.(e) - Units.mtu
  done;
  float_of_int !sum

let bytes_acked_window t ~t0 ~t1 =
  if t1 <= t0 then invalid_arg "Flow_stats.bytes_acked_window: empty window";
  window_bytes t ~t0 ~t1

let throughput_mbps t ~t0 ~t1 =
  if t1 <= t0 then invalid_arg "Flow_stats.throughput_mbps: empty window";
  Units.bytes_per_sec_to_mbps (window_bytes t ~t0 ~t1 /. (t1 -. t0))

(* The scans below walk entries [i0, i1) chunk by chunk: chunk [k]
   holds entries [k lsl chunk_bits, (k + 1) lsl chunk_bits), and its
   slice of the range is one flat loop over its float array, in entry
   order. The slice bounds use these int comparisons: a call to the
   polymorphic [min]/[max] would make the accumulator live across a
   call, so it would be spilled to the stack at every entry. *)
let[@inline] imin (a : int) b = if a < b then a else b
let[@inline] imax (a : int) b = if a > b then a else b

let rtt_samples t ~t0 ~t1 =
  let i0 = lower_bound t t0 and i1 = lower_bound t t1 in
  if i1 < i0 then invalid_arg "Flow_stats.rtt_samples: inverted window";
  let a = Array.create_float (i1 - i0) in
  for k = i0 lsr chunk_bits to (i1 - 1) asr chunk_bits do
    let c = t.chunks.(k) and base = k lsl chunk_bits in
    for j = imax i0 base - base to imin i1 (base + chunk_len) - base - 1 do
      a.(base + j - i0) <- c.((stride * j) + 1)
    done
  done;
  a

let rtt_percentile t ~t0 ~t1 ~p =
  let samples = rtt_samples t ~t0 ~t1 in
  if Array.length samples = 0 then None
  else Some (Proteus_stats.Descriptive.percentile samples ~p)

let throughput_series t ~bin ~until =
  if not (Float.is_finite bin && bin > 0.0) then
    invalid_arg "Flow_stats.throughput_series: bin";
  let nbins = int_of_float (Float.ceil (until /. bin)) in
  let acc = Array.make (max nbins 1) 0.0 in
  (* [e] is the side-table position of the next entry that is not one
     MTU; it moves with the scan whether or not the entry is binned. *)
  let e = ref 0 in
  for k = 0 to (t.acked - 1) asr chunk_bits do
    let c = t.chunks.(k) and base = k lsl chunk_bits in
    for j = 0 to imin t.acked (base + chunk_len) - base - 1 do
      let size =
        if !e < t.n_ex && t.ex_idx.(!e) = base + j then begin
          incr e;
          t.ex_size.(!e - 1)
        end
        else Units.mtu
      in
      let time = c.(stride * j) in
      if time < until then begin
        (* Acks whose bin index lands at or past [nbins] (possible when
           [time /. bin] rounds up against the window edge) are dropped
           rather than clamped into the last bin, which would silently
           inflate it. *)
        let b = int_of_float (time /. bin) in
        if b < nbins then acc.(b) <- acc.(b) +. float_of_int size
      end
    done
  done;
  Array.mapi
    (fun i bytes ->
      (float_of_int i *. bin, Units.bytes_per_sec_to_mbps (bytes /. bin)))
    acc

let first_ack_time t = if t.acked = 0 then None else Some (time t 0)
let last_ack_time t = if t.acked = 0 then None else Some (time t (t.acked - 1))
