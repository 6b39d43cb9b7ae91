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

type flow_state = {
  label : string;
  outstanding : (int, int) Hashtbl.t; (* seq -> size *)
  mutable sent : int;
  mutable acked : int;
  mutable lost : int;
  mutable dups : int;
  mutable acked_bytes : int;
  mutable last_time : float;
}

type t = {
  mutable flows : flow_state array;
  mutable n_flows : int;
  (* Ring of the last [trace] events: parallel arrays, oldest
     overwritten first. *)
  ring_kind : int array;
  ring_flow : int array;
  ring_seq : int array;
  ring_time : float array;
  mutable ring_pos : int;
  mutable ring_len : int;
  mutable checked : int;
  mutable last_global_time : float;
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
    ring_kind = Array.make trace 0;
    ring_flow = Array.make trace 0;
    ring_seq = Array.make trace 0;
    ring_time = Array.make trace 0.0;
    ring_pos = 0;
    ring_len = 0;
    checked = 0;
    last_global_time = neg_infinity;
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
      outstanding = Hashtbl.create 64;
      sent = 0;
      acked = 0;
      lost = 0;
      dups = 0;
      acked_bytes = 0;
      last_time = neg_infinity;
    }
  in
  if t.n_flows = Array.length t.flows then begin
    let cap = max 4 (2 * Array.length t.flows) in
    let a = Array.make cap fs in
    Array.blit t.flows 0 a 0 t.n_flows;
    t.flows <- a
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

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      (* Fatal path: publishing the violation on the observability bus is
         allowed to allocate. *)
      if Trace.enabled t.obs then
        Trace.emit t.obs ~time:t.last_global_time ~kind:Trace.Audit_violation
          ~flow:(-1) ~seq:t.checked ~a:0.0 ~b:0.0 ~note:msg;
      let trace = String.concat "\n" (recent_events t) in
      raise
        (Violation
           (Printf.sprintf
              "audit violation: %s\nlast %d events (oldest first):\n%s" msg
              t.ring_len trace)))
    fmt

let flow_state t flow =
  if flow < 0 || flow >= t.n_flows then
    fail t "event for unregistered flow id %d" flow
  else t.flows.(flow)

let record t ~kind ~flow ~seq ~time =
  let cap = Array.length t.ring_kind in
  t.ring_kind.(t.ring_pos) <- kind;
  t.ring_flow.(t.ring_pos) <- flow;
  t.ring_seq.(t.ring_pos) <- seq;
  t.ring_time.(t.ring_pos) <- time;
  t.ring_pos <- (t.ring_pos + 1) mod cap;
  if t.ring_len < cap then t.ring_len <- t.ring_len + 1;
  t.checked <- t.checked + 1;
  (* The simulator clock can only move forward. *)
  if time < t.last_global_time -. 1e-9 then
    fail t "clock went backwards: event at %.9f after %.9f" time
      t.last_global_time;
  t.last_global_time <- Float.max t.last_global_time time

(* In-flight accounting: counters and the outstanding set must agree at
   every step, and no derived quantity may go negative. *)
let check_accounting t fs =
  let out = fs.sent - fs.acked - fs.lost in
  if out < 0 then
    fail t "flow %s: acked(%d) + lost(%d) exceeds sent(%d)" fs.label fs.acked
      fs.lost fs.sent;
  if Hashtbl.length fs.outstanding <> out then
    fail t "flow %s: outstanding set has %d entries but counters say %d"
      fs.label
      (Hashtbl.length fs.outstanding)
      out

let on_sent t ~flow ~seq ~size ~now =
  record t ~kind:k_sent ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  if Hashtbl.mem fs.outstanding seq then
    fail t "flow %s: seq %d sent twice" fs.label seq;
  Hashtbl.replace fs.outstanding seq size;
  fs.sent <- fs.sent + 1;
  check_accounting t fs

let consume t fs ~seq ~what =
  match Hashtbl.find_opt fs.outstanding seq with
  | None ->
      fail t
        "flow %s: %s for seq %d which is not in flight (double delivery or \
         never sent)"
        fs.label what seq
  | Some size ->
      Hashtbl.remove fs.outstanding seq;
      size

let on_ack t ~flow ~seq ~size ~now =
  record t ~kind:k_ack ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  (* ACK events for a flow are delivered in nondecreasing sim time. *)
  if now < fs.last_time -. 1e-9 then
    fail t "flow %s: ACK at %.9f before previous event at %.9f" fs.label now
      fs.last_time;
  fs.last_time <- Float.max fs.last_time now;
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

let on_dup_ack t ~flow ~seq ~now =
  record t ~kind:k_dup ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  if now < fs.last_time -. 1e-9 then
    fail t "flow %s: dup ACK at %.9f before previous event at %.9f" fs.label
      now fs.last_time;
  fs.last_time <- Float.max fs.last_time now;
  (* A duplicate must duplicate a packet that was really delivered: its
     seq is no longer outstanding. *)
  if Hashtbl.mem fs.outstanding seq then
    fail t "flow %s: dup ACK for seq %d still in flight" fs.label seq;
  fs.dups <- fs.dups + 1

let on_loss t ~flow ~seq ~size ~now =
  record t ~kind:k_loss ~flow ~seq ~time:now;
  let fs = flow_state t flow in
  if now < fs.last_time -. 1e-9 then
    fail t "flow %s: loss at %.9f before previous event at %.9f" fs.label now
      fs.last_time;
  fs.last_time <- Float.max fs.last_time now;
  let sz = consume t fs ~seq ~what:"loss" in
  if sz <> size then
    fail t "flow %s: seq %d lost with size %d but sent with %d" fs.label seq
      size sz;
  fs.lost <- fs.lost + 1;
  check_accounting t fs

(* ---------- per-hop occupancy ---------- *)

let ensure_link t link =
  if link < 0 then fail t "hop event for negative link id %d" link;
  if link >= Array.length t.hop_entered then begin
    let cap = max (link + 1) (max 4 (2 * Array.length t.hop_entered)) in
    let grow a =
      let n = Array.make cap 0 in
      Array.blit a 0 n 0 (Array.length a);
      n
    in
    t.hop_entered <- grow t.hop_entered;
    t.hop_exited <- grow t.hop_exited;
    t.hop_dropped <- grow t.hop_dropped
  end

let hop_clock t ~now =
  t.hop_checked <- t.hop_checked + 1;
  if now < t.last_global_time -. 1e-9 then
    fail t "clock went backwards: hop event at %.9f after %.9f" now
      t.last_global_time;
  t.last_global_time <- Float.max t.last_global_time now

let on_hop_enter t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  t.hop_entered.(link) <- t.hop_entered.(link) + 1

let on_hop_exit t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  t.hop_exited.(link) <- t.hop_exited.(link) + 1;
  if t.hop_exited.(link) > t.hop_entered.(link) then
    fail t "link %d: %d hop exits but only %d entries (phantom packet)" link
      t.hop_exited.(link)
      t.hop_entered.(link)

let on_hop_drop t ~link ~now =
  ensure_link t link;
  hop_clock t ~now;
  t.hop_dropped.(link) <- t.hop_dropped.(link) + 1

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

let observe_backlog t ~backlog ~now =
  if not (Float.is_finite backlog) then
    fail t "backlog is not finite (%g) at %.6f" backlog now;
  if backlog < 0.0 then fail t "negative backlog %g at %.6f" backlog now

let outstanding t =
  let n = ref 0 in
  for i = 0 to t.n_flows - 1 do
    n := !n + Hashtbl.length t.flows.(i).outstanding
  done;
  !n

let events_checked t = t.checked

let assert_quiesced t =
  for i = 0 to t.n_flows - 1 do
    let fs = t.flows.(i) in
    if Hashtbl.length fs.outstanding <> 0 then
      fail t
        "flow %s: %d packets neither delivered nor dropped after quiesce \
         (conservation)"
        fs.label
        (Hashtbl.length fs.outstanding)
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
