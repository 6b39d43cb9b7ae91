exception Violation of string

module Trace = Proteus_obs.Trace

(* Event kinds, encoded as ints so the trace ring stays allocation-free
   in steady state. *)
let k_sent = 0
let k_ack = 1
let k_dup = 2
let k_loss = 3

let kind_name = function
  | 0 -> "sent"
  | 1 -> "ack "
  | 2 -> "dup "
  | _ -> "loss"

(* The in-flight set of one flow: seq -> size, in two int arrays with
   open addressing and linear probing. The home slot is the top bits of
   [seq * golden] (Fibonacci hashing), which spreads consecutive seqs
   across the table instead of packing them into one probe cluster, so
   a backward-shift deletion stops after a slot or two. The load factor
   stays at most 1/2 by doubling. Lookups, inserts and deletes make no
   allocation and no C call; only growth allocates.

   [empty] marks a free slot; the one seq equal to it is kept aside in
   [aside_*], so every int is a valid seq. *)
module Inflight = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;  (* capacity - 1 *)
    mutable shift : int;  (* Sys.int_size - log2 capacity *)
    mutable count : int;  (* seqs stored in [keys] *)
    mutable aside_used : bool;
    mutable aside_size : int;
  }

  let empty = min_int

  (* Odd, about 2^63 / golden ratio. *)
  let golden = 0x4F1BBCDCBFA53E0B

  let create () =
    let bits = 6 in
    {
      keys = Array.make (1 lsl bits) empty;
      vals = Array.make (1 lsl bits) 0;
      mask = (1 lsl bits) - 1;
      shift = Sys.int_size - bits;
      count = 0;
      aside_used = false;
      aside_size = 0;
    }

  let length t = t.count + if t.aside_used then 1 else 0
  let[@inline] home t seq = (seq * golden) lsr t.shift

  (* The probe loops are top-level functions of their arguments, not
     local closures, so a lookup allocates nothing. *)
  let rec probe_find keys mask seq i =
    let k = Array.unsafe_get keys i in
    if k = seq then i
    else if k = empty then -1
    else probe_find keys mask seq ((i + 1) land mask)

  (* Slot of [seq] in [keys] (never [empty]), or -1. *)
  let find t seq = probe_find t.keys t.mask seq (home t seq)

  let mem t seq = if seq = empty then t.aside_used else find t seq >= 0

  let rec probe_free keys mask i =
    if Array.unsafe_get keys i = empty then i
    else probe_free keys mask ((i + 1) land mask)

  (* Store an absent, non-[empty] seq; the table has a free slot. *)
  let place t seq size =
    let i = probe_free t.keys t.mask (home t seq) in
    Array.unsafe_set t.keys i seq;
    Array.unsafe_set t.vals i size

  let[@inline never] grow t =
    let keys = t.keys and vals = t.vals in
    let bits = Sys.int_size - t.shift + 1 in
    let cap = 1 lsl bits in
    t.keys <- Array.make cap empty;
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    t.shift <- Sys.int_size - bits;
    Array.iteri (fun i k -> if k <> empty then place t k vals.(i)) keys

  (* Add an absent seq. *)
  let add t seq size =
    if seq = empty then begin
      t.aside_used <- true;
      t.aside_size <- size
    end
    else begin
      if 2 * (t.count + 1) > Array.length t.keys then grow t;
      place t seq size;
      t.count <- t.count + 1
    end

  (* Free slot [hole], then walk its cluster moving back every entry
     whose home slot does not lie cyclically in (hole, j]. *)
  let rec shift_back t hole j =
    let mask = t.mask in
    let j = (j + 1) land mask in
    let k = Array.unsafe_get t.keys j in
    if k = empty then Array.unsafe_set t.keys hole empty
    else if (j - home t k) land mask >= (j - hole) land mask then begin
      Array.unsafe_set t.keys hole k;
      Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
      shift_back t j j
    end
    else shift_back t hole j

  let delete t hole =
    shift_back t hole hole;
    t.count <- t.count - 1

  (* Remove [seq] and return its size; raises [Not_found] (leaving the
     set unchanged) when it is not in flight. *)
  let take t seq =
    if seq = empty then
      if t.aside_used then begin
        t.aside_used <- false;
        t.aside_size
      end
      else raise Not_found
    else
      let i = find t seq in
      if i < 0 then raise Not_found
      else begin
        let size = Array.unsafe_get t.vals i in
        delete t i;
        size
      end
end

type flow_state = {
  label : string;
  inflight : Inflight.t;
  mutable sent : int;
  mutable acked : int;
  mutable lost : int;
  mutable dups : int;
  mutable acked_bytes : int;
}

type t = {
  mutable flows : flow_state array;
  mutable n_flows : int;
  (* Event clocks in flat float arrays, so advancing them stores an
     unboxed float: [clock.(0)] is the global clock, [flow_clock.(i)]
     flow [i]'s ACK/loss clock. *)
  clock : float array;
  mutable flow_clock : float array;
  (* Ring of the last [trace] events: parallel arrays, oldest
     overwritten first. *)
  ring_kind : int array;
  ring_flow : int array;
  ring_seq : int array;
  ring_time : float array;
  mutable ring_pos : int;
  mutable ring_len : int;
  mutable checked : int;
  obs : Trace.t;
  (* Per-link hop occupancy counters, indexed by
     link id and grown on demand. Hop events are cross-checks layered
     under the flow-level conservation law; they deliberately do not
     touch [checked] or the event ring. *)
  mutable hop_entered : int array;
  mutable hop_exited : int array;
  mutable hop_dropped : int array;
  mutable hop_checked : int;
  (* Fluid-conservation probes: one closure per fluid-carrying link
     reading that link's aggregate byte totals. Closure-based so the
     auditor stays independent of the fluid tier's types. Newest
     first; checked in registration order. *)
  mutable fluids : (int * (unit -> float * float * float * float)) list;
}

let create ?(trace = 64) ?(obs = Trace.disabled) () =
  if trace <= 0 then invalid_arg "Audit.create: trace must be positive";
  {
    obs;
    flows = [||];
    n_flows = 0;
    clock = [| neg_infinity |];
    flow_clock = [||];
    ring_kind = Array.make trace 0;
    ring_flow = Array.make trace 0;
    ring_seq = Array.make trace 0;
    ring_time = Array.make trace 0.0;
    ring_pos = 0;
    ring_len = 0;
    checked = 0;
    hop_entered = [||];
    hop_exited = [||];
    hop_dropped = [||];
    hop_checked = 0;
    fluids = [];
  }

let register_flow t ~label =
  let fs =
    {
      label;
      inflight = Inflight.create ();
      sent = 0;
      acked = 0;
      lost = 0;
      dups = 0;
      acked_bytes = 0;
    }
  in
  if t.n_flows = Array.length t.flows then begin
    let cap = max 4 (2 * Array.length t.flows) in
    let a = Array.make cap fs in
    Array.blit t.flows 0 a 0 t.n_flows;
    t.flows <- a;
    let c = Array.make cap neg_infinity in
    Array.blit t.flow_clock 0 c 0 t.n_flows;
    t.flow_clock <- c
  end;
  t.flows.(t.n_flows) <- fs;
  t.n_flows <- t.n_flows + 1;
  t.n_flows - 1

let recent_events t =
  let n = t.ring_len in
  let cap = Array.length t.ring_kind in
  List.init n (fun i ->
      let j = (t.ring_pos - n + i + (2 * cap)) mod cap in
      Printf.sprintf "%12.6f  %s flow=%s seq=%d"
        t.ring_time.(j)
        (kind_name t.ring_kind.(j))
        (if t.ring_flow.(j) < t.n_flows then t.flows.(t.ring_flow.(j)).label
         else string_of_int t.ring_flow.(j))
        t.ring_seq.(j))

(* ---------- failure paths (out of line) ---------- *)

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      (* Fatal path: publishing the violation on the observability bus is
         allowed to allocate. *)
      if Trace.enabled t.obs then
        Trace.emit t.obs ~time:t.clock.(0) ~kind:Trace.Audit_violation
          ~flow:(-1) ~seq:t.checked ~a:0.0 ~b:0.0 ~note:msg;
      let trace = String.concat "\n" (recent_events t) in
      raise
        (Violation
           (Printf.sprintf
              "audit violation: %s\nlast %d events (oldest first):\n%s" msg
              t.ring_len trace)))
    fmt

let[@inline never] fail_time t ~what time =
  if Float.is_finite time then
    fail t "clock went backwards: %sevent at %.9f after %.9f" what time
      t.clock.(0)
  else fail t "non-finite %sevent time %g" what time

let[@inline never] fail_flow_time t fs ~what ~now ~last =
  fail t "flow %s: %s at %.9f before previous event at %.9f" fs.label what now
    last

let[@inline never] fail_backlog t ~backlog ~now =
  if not (Float.is_finite backlog) then
    fail t "backlog is not finite (%g) at %.6f" backlog now
  else fail t "negative backlog %g at %.6f" backlog now

(* ---------- hot path ----------

   The entry points are small and inlined, so a caller's unboxed [now]
   reaches the ring and the clocks without being boxed; everything
   after the clocks takes ints only and runs out of line. *)

(* Advance the global clock: it only moves forward, and a non-finite
   time raises (a NaN would otherwise make every later comparison
   false and switch the check off). The update is [max] for any time
   that passed the checks. *)
let[@inline] advance t ~what ~time =
  let last = Array.unsafe_get t.clock 0 in
  if not (Float.is_finite time && time >= last -. 1e-9) then
    fail_time t ~what time;
  if not (time <= last) then Array.unsafe_set t.clock 0 time

let[@inline] record t ~kind ~flow ~seq ~time =
  let pos = t.ring_pos in
  Array.unsafe_set t.ring_kind pos kind;
  Array.unsafe_set t.ring_flow pos flow;
  Array.unsafe_set t.ring_seq pos seq;
  Array.unsafe_set t.ring_time pos time;
  let pos = pos + 1 in
  let cap = Array.length t.ring_kind in
  t.ring_pos <- (if pos = cap then 0 else pos);
  if t.ring_len < cap then t.ring_len <- t.ring_len + 1;
  t.checked <- t.checked + 1;
  advance t ~what:"" ~time

let[@inline never] fail_flow_id t flow =
  fail t "event for unregistered flow id %d" flow

let[@inline] flow_state t flow =
  if flow < 0 || flow >= t.n_flows then fail_flow_id t flow
  else Array.unsafe_get t.flows flow

(* ACK, dup and loss events of a flow arrive in nondecreasing sim time.
   [now] already passed [record], so it is finite. *)
let[@inline] flow_clock t fs ~flow ~what ~now =
  let last = Array.unsafe_get t.flow_clock flow in
  if now < last -. 1e-9 then fail_flow_time t fs ~what ~now ~last;
  if not (now <= last) then Array.unsafe_set t.flow_clock flow now

(* In-flight accounting: counters and the outstanding set must agree at
   every step, and no derived quantity may go negative. *)
let check_accounting t fs =
  let out = fs.sent - fs.acked - fs.lost in
  if out < 0 then
    fail t "flow %s: acked(%d) + lost(%d) exceeds sent(%d)" fs.label fs.acked
      fs.lost fs.sent;
  let n = Inflight.length fs.inflight in
  if n <> out then
    fail t "flow %s: outstanding set has %d entries but counters say %d"
      fs.label n out

let sent t fs ~seq ~size =
  if Inflight.mem fs.inflight seq then
    fail t "flow %s: seq %d sent twice" fs.label seq;
  Inflight.add fs.inflight seq size;
  fs.sent <- fs.sent + 1;
  check_accounting t fs

let consume t fs ~seq ~what =
  match Inflight.take fs.inflight seq with
  | size -> size
  | exception Not_found ->
      fail t
        "flow %s: %s for seq %d which is not in flight (double delivery or \
         never sent)"
        fs.label what seq

let acked t fs ~seq ~size =
  let sz = consume t fs ~seq ~what:"ACK" in
  if sz <> size then
    fail t "flow %s: seq %d acked with size %d but sent with %d" fs.label seq
      size sz;
  fs.acked <- fs.acked + 1;
  let prev = fs.acked_bytes in
  fs.acked_bytes <- fs.acked_bytes + size;
  if fs.acked_bytes < prev then
    fail t "flow %s: acked byte count went backwards" fs.label;
  check_accounting t fs

let lost t fs ~seq ~size =
  let sz = consume t fs ~seq ~what:"loss" in
  if sz <> size then
    fail t "flow %s: seq %d lost with size %d but sent with %d" fs.label seq
      size sz;
  fs.lost <- fs.lost + 1;
  check_accounting t fs

(* A duplicate must duplicate a packet that was really delivered: its
   seq is no longer outstanding. *)
let dup t fs ~seq =
  if Inflight.mem fs.inflight seq then
    fail t "flow %s: dup ACK for seq %d still in flight" fs.label seq;
  fs.dups <- fs.dups + 1

let[@inline] on_sent t ~flow ~seq ~size ~now =
  record t ~kind:k_sent ~flow ~seq ~time:now;
  sent t (flow_state t flow) ~seq ~size

let[@inline] on_ack t ~flow ~seq ~size ~now =
  record t ~kind:k_ack ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  flow_clock t fs ~flow ~what:"ACK" ~now;
  acked t fs ~seq ~size

let[@inline] on_dup_ack t ~flow ~seq ~now =
  record t ~kind:k_dup ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  flow_clock t fs ~flow ~what:"dup ACK" ~now;
  dup t fs ~seq

let[@inline] on_loss t ~flow ~seq ~size ~now =
  record t ~kind:k_loss ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  flow_clock t fs ~flow ~what:"loss" ~now;
  lost t fs ~seq ~size

let[@inline] observe_backlog t ~backlog ~now =
  if not (Float.is_finite backlog && backlog >= 0.0) then
    fail_backlog t ~backlog ~now

(* ---------- per-hop occupancy ---------- *)

let[@inline never] grow_links t link =
  if link < 0 then fail t "hop event for negative link id %d" link;
  let cap = max (link + 1) (max 4 (2 * Array.length t.hop_entered)) in
  let grow a =
    let n = Array.make cap 0 in
    Array.blit a 0 n 0 (Array.length a);
    n
  in
  t.hop_entered <- grow t.hop_entered;
  t.hop_exited <- grow t.hop_exited;
  t.hop_dropped <- grow t.hop_dropped

let[@inline] ensure_link t link =
  if link < 0 || link >= Array.length t.hop_entered then grow_links t link

let[@inline] hop_clock t ~now =
  t.hop_checked <- t.hop_checked + 1;
  advance t ~what:"hop " ~time:now

let[@inline never] fail_phantom t link =
  fail t "link %d: %d hop exits but only %d entries (phantom packet)" link
    t.hop_exited.(link) t.hop_entered.(link)

let[@inline] on_hop_enter t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  Array.unsafe_set t.hop_entered link (Array.unsafe_get t.hop_entered link + 1)

let[@inline] on_hop_exit t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  let exited = Array.unsafe_get t.hop_exited link + 1 in
  Array.unsafe_set t.hop_exited link exited;
  if exited > Array.unsafe_get t.hop_entered link then fail_phantom t link

let[@inline] on_hop_drop t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  Array.unsafe_set t.hop_dropped link (Array.unsafe_get t.hop_dropped link + 1)

let hop_counters t ~link =
  if link < 0 || link >= Array.length t.hop_entered then (0, 0, 0)
  else (t.hop_entered.(link), t.hop_exited.(link), t.hop_dropped.(link))

let hop_events_checked t = t.hop_checked

(* ---------- fluid byte conservation ---------- *)

let register_fluid t ~link ~totals = t.fluids <- (link, totals) :: t.fluids

let check_fluid t =
  List.iter
    (fun (link, totals) ->
      let bytes_in, bytes_out, shed, backlog = totals () in
      let fin v = Float.is_finite v in
      if not (fin bytes_in && fin bytes_out && fin shed && fin backlog) then
        fail t
          "link %d: fluid byte accounting is not finite (in %g out %g shed %g \
           backlog %g)"
          link bytes_in bytes_out shed backlog;
      if bytes_in < 0.0 || bytes_out < 0.0 || shed < 0.0 || backlog < 0.0 then
        fail t
          "link %d: negative fluid byte accounting (in %g out %g shed %g \
           backlog %g)"
          link bytes_in bytes_out shed backlog;
      let residual = bytes_in -. (bytes_out +. shed +. backlog) in
      if Float.abs residual > 1e-6 *. Float.max 1.0 bytes_in then
        fail t
          "link %d: fluid conservation violated: %.3f bytes in but %.3f out + \
           %.3f shed + %.3f backlog (residual %g)"
          link bytes_in bytes_out shed backlog residual)
    (List.rev t.fluids)

let fluid_links_checked t = List.length t.fluids

let outstanding t =
  let n = ref 0 in
  for i = 0 to t.n_flows - 1 do
    n := !n + Inflight.length t.flows.(i).inflight
  done;
  !n

let events_checked t = t.checked

let assert_quiesced t =
  for i = 0 to t.n_flows - 1 do
    let fs = t.flows.(i) in
    let n = Inflight.length fs.inflight in
    if n <> 0 then
      fail t
        "flow %s: %d packets neither delivered nor dropped after quiesce \
         (conservation)"
        fs.label n
  done;
  for link = 0 to Array.length t.hop_entered - 1 do
    if t.hop_entered.(link) <> t.hop_exited.(link) then
      fail t
        "link %d: %d packets entered the hop but %d exited after quiesce \
         (per-hop conservation)"
        link
        t.hop_entered.(link)
        t.hop_exited.(link)
  done;
  check_fluid t
