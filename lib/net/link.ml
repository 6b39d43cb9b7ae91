module Rng = Proteus_stats.Rng
module Trace = Proteus_obs.Trace

type loss_model =
  | Iid of float
  | Gilbert_elliott of {
      p_good_bad : float;
      p_bad_good : float;
      loss_good : float;
      loss_bad : float;
    }

type impairment =
  | Set_bandwidth of float
  | Set_rtt of float
  | Set_buffer of int
  | Set_loss of loss_model
  | Down of { duration : float; flush : bool }

type config = {
  bandwidth_mbps : float;
  rtt_ms : float;
  buffer_bytes : int;
  loss_rate : float;
  loss : loss_model option;
  noise : Noise.spec;
  schedule : (float * impairment) list;
  reorder_prob : float;
  reorder_extra_ms : float;
  dup_prob : float;
}

(* ---------- validation (all construction paths funnel through here) ---------- *)

let check_pos_finite what v =
  if not (Float.is_finite v && v > 0.0) then
    invalid_arg (Printf.sprintf "Link.config: %s must be positive and finite, got %g" what v)

let check_nonneg_finite what v =
  if not (Float.is_finite v && v >= 0.0) then
    invalid_arg (Printf.sprintf "Link.config: %s must be nonnegative and finite, got %g" what v)

let check_prob what v =
  (* Written so NaN fails too. *)
  if not (v >= 0.0 && v <= 1.0) then
    invalid_arg (Printf.sprintf "Link.config: %s must be in [0,1], got %g" what v)

let check_loss_model = function
  | Iid p -> check_prob "loss rate" p
  | Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad } ->
      check_prob "Gilbert-Elliott p_good_bad" p_good_bad;
      check_prob "Gilbert-Elliott p_bad_good" p_bad_good;
      check_prob "Gilbert-Elliott loss_good" loss_good;
      check_prob "Gilbert-Elliott loss_bad" loss_bad

(* Noise parameters: a NaN or negative delay would otherwise surface
   mid-run as an event scheduled outside the kernel's horizon, or
   silently mean no jitter. *)
let check_noise = function
  | Noise.None_ -> ()
  | Noise.Gaussian { sigma_ms } ->
      check_nonneg_finite "gaussian sigma_ms" sigma_ms
  | Noise.Lte { frame_ms; jitter_ms; outage_prob; outage_max_ms } ->
      check_pos_finite "lte frame_ms" frame_ms;
      check_nonneg_finite "lte jitter_ms" jitter_ms;
      check_prob "lte outage_prob" outage_prob;
      check_nonneg_finite "lte outage_max_ms" outage_max_ms
  | Noise.Wifi
      { jitter_ms; spike_prob; spike_scale_ms; gate_prob; gate_max_ms } ->
      check_nonneg_finite "wifi jitter_ms" jitter_ms;
      check_prob "wifi spike_prob" spike_prob;
      check_nonneg_finite "wifi spike_scale_ms" spike_scale_ms;
      check_prob "wifi gate_prob" gate_prob;
      check_nonneg_finite "wifi gate_max_ms" gate_max_ms

let check_impairment = function
  | Set_bandwidth b -> check_pos_finite "scheduled bandwidth_mbps" b
  | Set_rtt r -> check_pos_finite "scheduled rtt_ms" r
  | Set_buffer b ->
      if b <= 0 then
        invalid_arg
          (Printf.sprintf "Link.config: scheduled buffer_bytes must be positive, got %d" b)
  | Set_loss m -> check_loss_model m
  | Down { duration; flush = _ } -> check_pos_finite "outage duration" duration

let validate cfg =
  check_pos_finite "bandwidth_mbps" cfg.bandwidth_mbps;
  check_pos_finite "rtt_ms" cfg.rtt_ms;
  if cfg.buffer_bytes <= 0 then
    invalid_arg
      (Printf.sprintf "Link.config: buffer_bytes must be positive, got %d" cfg.buffer_bytes);
  check_prob "loss_rate" cfg.loss_rate;
  Option.iter check_loss_model cfg.loss;
  check_noise cfg.noise;
  check_prob "reorder_prob" cfg.reorder_prob;
  check_nonneg_finite "reorder_extra_ms" cfg.reorder_extra_ms;
  check_prob "dup_prob" cfg.dup_prob;
  List.iter
    (fun (time, imp) ->
      check_nonneg_finite "schedule entry time" time;
      check_impairment imp)
    cfg.schedule;
  (* Outage windows must not overlap: the virtual-queue lookahead
     assumes each packet crosses windows left to right. *)
  let downs =
    List.filter_map
      (function t, Down { duration; _ } -> Some (t, t +. duration) | _ -> None)
      (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) cfg.schedule)
  in
  let rec no_overlap = function
    | (_, e1) :: ((s2, _) :: _ as rest) ->
        if e1 > s2 then
          invalid_arg
            (Printf.sprintf "Link.config: overlapping outage windows (one ends %g, next starts %g)" e1 s2);
        no_overlap rest
    | _ -> ()
  in
  no_overlap downs

let config ?(loss_rate = 0.0) ?loss ?(noise = Noise.None_) ?(schedule = [])
    ?(reorder_prob = 0.0) ?(reorder_extra_ms = 5.0) ?(dup_prob = 0.0)
    ~bandwidth_mbps ~rtt_ms ~buffer_bytes () =
  let cfg =
    { bandwidth_mbps; rtt_ms; buffer_bytes; loss_rate; loss; noise; schedule;
      reorder_prob; reorder_extra_ms; dup_prob }
  in
  validate cfg;
  cfg

let average_loss = function
  | Iid p -> p
  | Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad } ->
      let denom = p_good_bad +. p_bad_good in
      if denom <= 0.0 then loss_good
      else
        let pi_bad = p_good_bad /. denom in
        ((1.0 -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)

type t = {
  mutable capacity : float;  (* bytes per second *)
  (* Capacity left for the packet tier: [capacity] minus the fluid
     aggregate's served rate. Always equal to [capacity] on links
     without a fluid attachment, so the no-fluid arithmetic is
     bit-identical to the historical single-tier link. *)
  mutable cap_eff : float;
  mutable agg : Aggregate.t option;  (* fluid background tier *)
  mutable prop_one_way : float;
  mutable buffer_bytes : float;
  mutable loss : loss_model;
  mutable ge_bad : bool;  (* Gilbert–Elliott chain state *)
  rng : Rng.t;
  noise : Noise.t;
  noisy : bool;  (* [noise] is not [Noise.None_] *)
  (* Unboxed float scratch: fl.(0) is [free_at] (the instant the server
     finishes everything admitted so far), fl.(1) the last forward
     arrival at the far end, fl.(2) the last nominal ACK delivery and
     fl.(3) the last instant an ACK reached the hop (the FIFO clamps of
     the two directions), and fl.(4) the [now] of the call in progress
     (see [sync]). Mutable float fields in this mixed record would box
     on every store, so they live in a float array. *)
  fl : float array;
  (* Impairment schedule, sorted by time; entries at index < [sched_idx]
     have been applied. *)
  sched_time : float array;
  sched_imp : impairment array;
  mutable sched_idx : int;
  (* Outage windows (subset of the schedule), sorted; [out_idx] is the
     first window whose end lies in the future. *)
  out_start : float array;
  out_end : float array;
  out_flush : bool array;
  mutable out_idx : int;
  reorder_prob : float;
  reorder_extra : float;  (* seconds *)
  dup_prob : float;
  trace : Trace.t;
  id : int; (* index in the topology, for trace events *)
}

let create ?(trace = Trace.disabled) ~id cfg ~rng =
  validate cfg;
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) cfg.schedule
  in
  let downs =
    List.filter_map
      (function t, Down { duration; flush } -> Some (t, t +. duration, flush) | _ -> None)
      sorted
  in
  {
    capacity = Units.mbps_to_bytes_per_sec cfg.bandwidth_mbps;
    cap_eff = Units.mbps_to_bytes_per_sec cfg.bandwidth_mbps;
    agg = None;
    prop_one_way = Units.ms cfg.rtt_ms /. 2.0;
    buffer_bytes = float_of_int cfg.buffer_bytes;
    loss = (match cfg.loss with Some m -> m | None -> Iid cfg.loss_rate);
    ge_bad = false;
    rng = Rng.split rng;
    noise = Noise.create cfg.noise ~rng:(Rng.split rng);
    noisy = cfg.noise <> Noise.None_;
    fl = [| 0.0; neg_infinity; neg_infinity; neg_infinity; 0.0 |];
    sched_time = Array.of_list (List.map fst sorted);
    sched_imp = Array.of_list (List.map snd sorted);
    sched_idx = 0;
    out_start = Array.of_list (List.map (fun (s, _, _) -> s) downs);
    out_end = Array.of_list (List.map (fun (_, e, _) -> e) downs);
    out_flush = Array.of_list (List.map (fun (_, _, f) -> f) downs);
    out_idx = 0;
    reorder_prob = cfg.reorder_prob;
    reorder_extra = Units.ms cfg.reorder_extra_ms;
    dup_prob = cfg.dup_prob;
    trace;
    id;
  }

(* Branch-only [Float.max], equal to it on every input
   (see [Descriptive.fmax]): the stdlib's calls the C [caml_signbit]
   whenever its first comparison fails. Local and inlined, so no
   float crosses a module boundary. *)
let[@inline] fmax (a : float) b =
  if a > b then a
  else if b > a then b
  else if a = b then (if a = 0.0 then a +. b else a)
  else Float.max a b

(* Advance the fluid aggregate to [now] and refresh the packet tier's
   effective capacity. When the fluid claim changed, the unserved
   packet backlog is re-served at the new rate — the same conversion
   [Set_bandwidth] applies, so packet bytes are conserved across fluid
   regime changes. No-op on links without a fluid attachment. *)
let apply_fluid t ~now =
  match t.agg with
  | None -> ()
  | Some a ->
      Aggregate.advance a ~until:now ~capacity:t.capacity
        ~buffer:t.buffer_bytes;
      (* [served_rate <= 0.95 * capacity], so the packet tier always
         keeps a positive service floor. *)
      let ce = t.capacity -. Aggregate.served_rate a in
      if ce <> t.cap_eff then begin
        let unserved = fmax 0.0 (t.fl.(0) -. now) *. t.cap_eff in
        t.cap_eff <- ce;
        t.fl.(0) <- now +. (unserved /. ce)
      end

(* Apply schedule entries whose time has passed. Rate changes convert
   the unserved backlog at the change instant (exact because no packet
   was admitted in between); outage starts park [free_at] at the window
   end — the server is down for the window, and a flush additionally
   discards the queue (packets that would have been flushed were
   already reported Dropped at admission by the lookahead below). The
   fluid aggregate is advanced up to each impairment instant first, so
   every fluid integration interval sees one consistent capacity.

   The instant comes in [fl.(4)]: a float argument to a call that is
   not inlined is boxed, and every packet crosses this. The entry
   points below are thin inlined wrappers that store [now] there and
   call out-of-line bodies that read it back unboxed. *)
let sync_at t =
  let now = t.fl.(4) in
  while
    t.sched_idx < Array.length t.sched_time && t.sched_time.(t.sched_idx) <= now
  do
    let tc = t.sched_time.(t.sched_idx) in
    if t.agg <> None then apply_fluid t ~now:tc;
    (match t.sched_imp.(t.sched_idx) with
    | Set_bandwidth mbps ->
        let unserved = fmax 0.0 (t.fl.(0) -. tc) *. t.cap_eff in
        t.capacity <- Units.mbps_to_bytes_per_sec mbps;
        (* The fluid share of the new capacity is re-deducted by the
           [apply_fluid] at the end of this sync. *)
        t.cap_eff <- t.capacity;
        t.fl.(0) <- tc +. (unserved /. t.cap_eff);
        if Trace.enabled t.trace then
          Trace.emit t.trace ~time:tc ~kind:Trace.Impairment ~flow:(-1)
            ~seq:t.id ~a:mbps ~b:0.0 ~note:"set-bandwidth"
    | Set_rtt ms ->
        t.prop_one_way <- Units.ms ms /. 2.0;
        if Trace.enabled t.trace then
          Trace.emit t.trace ~time:tc ~kind:Trace.Impairment ~flow:(-1)
            ~seq:t.id ~a:ms ~b:0.0 ~note:"set-rtt"
    | Set_buffer b ->
        t.buffer_bytes <- float_of_int b;
        if Trace.enabled t.trace then
          Trace.emit t.trace ~time:tc ~kind:Trace.Impairment ~flow:(-1)
            ~seq:t.id ~a:(float_of_int b) ~b:0.0 ~note:"set-buffer"
    | Set_loss m ->
        t.loss <- m;
        t.ge_bad <- false;
        if Trace.enabled t.trace then
          Trace.emit t.trace ~time:tc ~kind:Trace.Impairment ~flow:(-1)
            ~seq:t.id ~a:(average_loss m) ~b:0.0 ~note:"set-loss"
    | Down { duration; flush } ->
        let o_end = tc +. duration in
        t.fl.(0) <- (if flush then o_end else fmax t.fl.(0) o_end);
        if Trace.enabled t.trace then
          Trace.emit t.trace ~time:tc ~kind:Trace.Impairment ~flow:(-1)
            ~seq:t.id ~a:duration
            ~b:(if flush then 1.0 else 0.0)
            ~note:"down");
    t.sched_idx <- t.sched_idx + 1
  done;
  while t.out_idx < Array.length t.out_end && t.out_end.(t.out_idx) <= now do
    if Trace.enabled t.trace then
      Trace.emit t.trace ~time:(t.out_end.(t.out_idx)) ~kind:Trace.Impairment
        ~flow:(-1) ~seq:t.id ~a:0.0 ~b:0.0 ~note:"up";
    t.out_idx <- t.out_idx + 1
  done;
  if t.agg <> None then apply_fluid t ~now

(* ---------- fluid background tier ---------- *)

let attach_fluid t a =
  if t.agg <> None then
    invalid_arg "Link.attach_fluid: link already carries a fluid aggregate";
  t.agg <- Some a

let[@inline] sync t ~now =
  t.fl.(4) <- now;
  sync_at t

let fluid t = t.agg
let sync_fluid t ~now = sync t ~now

(* Buffer headroom the packet tier may fill: the fluid backlog occupies
   the shared buffer. *)
let[@inline] packet_buffer t =
  match t.agg with
  | None -> t.buffer_bytes
  | Some a -> t.buffer_bytes -. Aggregate.backlog a

(* Congestion loss induced by the fluid tier: while the fluid backlog
   is pinned at its buffer share and shedding, foreground packets
   entering the same queue are lost with the fluid's shed fraction.
   Never draws randomness on links without fluid (or outside shedding
   episodes), so no-fluid runs consume the identical RNG stream. *)
let[@inline] draw_fluid_loss t =
  match t.agg with
  | None -> false
  | Some a ->
      let p = Aggregate.loss_prob a in
      p > 0.0 && Rng.bernoulli t.rng ~p

let capacity_bytes_per_sec t = t.capacity
let base_rtt t = 2.0 *. t.prop_one_way
let[@inline] one_way_delay t ~now =
  sync t ~now;
  t.prop_one_way

let[@inline] is_down t ~now =
  sync t ~now;
  t.out_idx < Array.length t.out_start
  && t.out_start.(t.out_idx) <= now
  && now < t.out_end.(t.out_idx)

let[@inline] backlog_bytes t ~now =
  sync t ~now;
  fmax 0.0 (t.fl.(0) -. now) *. t.cap_eff

let[@inline] queue_delay t ~now =
  sync t ~now;
  fmax 0.0 (t.fl.(0) -. now)

let draw_loss t =
  match t.loss with
  | Iid p -> Rng.bernoulli t.rng ~p
  | Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad } ->
      t.ge_bad <-
        (if t.ge_bad then not (Rng.bernoulli t.rng ~p:p_bad_good)
         else Rng.bernoulli t.rng ~p:p_good_bad);
      Rng.bernoulli t.rng ~p:(if t.ge_bad then loss_bad else loss_good)

(* ---------- packet path ---------- *)

(* Outage-window lookahead of [forward]: advance [dep0] past every
   drain window it crosses, or detect a flush window (which discards
   the queue, this packet included). Updates [fl.(0)] ([free_at]) —
   even a flushed packet occupies the queue until the flush — and
   returns NaN for "flushed". The fast path (no future window crossed,
   i.e. every benign link) allocates nothing. *)
let[@inline] lookahead t ~now dep0 =
  if t.out_idx >= Array.length t.out_start || dep0 <= t.out_start.(t.out_idx)
  then begin
    t.fl.(0) <- dep0;
    dep0
  end
  else begin
    let departure = ref dep0 in
    let flushed = ref false in
    let i = ref t.out_idx in
    while
      (not !flushed)
      && !i < Array.length t.out_start
      && !departure > t.out_start.(!i)
    do
      if t.out_start.(!i) >= now then begin
        if t.out_flush.(!i) then flushed := true
        else departure := !departure +. (t.out_end.(!i) -. t.out_start.(!i))
      end;
      incr i
    done;
    t.fl.(0) <- !departure;
    if !flushed then Float.nan else !departure
  end

(* Admission: outage refusal, loss draw, fluid loss, tail drop, outage
   lookahead. The wire is FIFO: arrivals are clamped to be
   nondecreasing, so an RTT cut mid-run cannot land a later packet
   before an earlier one. *)
let forward_at t ~size ~out =
  let now = t.fl.(4) in
  sync_at t;
  if
    t.out_idx < Array.length t.out_start
    && t.out_start.(t.out_idx) <= now
    && now < t.out_end.(t.out_idx)
  then false
  else if draw_loss t then false
  else if draw_fluid_loss t then false
  else begin
    let sizef = float_of_int size in
    let free_at = t.fl.(0) in
    let wait = free_at -. now in
    if ((if wait > 0.0 then wait else 0.0) *. t.cap_eff) +. sizef > packet_buffer t
    then false
    else begin
      let start = if now >= free_at then now else free_at in
      let departure = lookahead t ~now (start +. (sizef /. t.cap_eff)) in
      if Float.is_nan departure then false
      else begin
        let arrival = departure +. t.prop_one_way in
        let arrival = if arrival >= t.fl.(1) then arrival else t.fl.(1) in
        t.fl.(1) <- arrival;
        out.(0) <- arrival;
        true
      end
    end
  end

(* An ACK pays the data backlog the hop carries at computation time
   (its queueing delay as of [now], assumed to persist until the ACK
   arrives), its own serialization and one propagation delay, but never
   queue-builds, drops, or moves [free_at]. The schedule is synced at
   simulated-now only: [at] may lie in the future, and syncing to it
   would apply impairments early.

   FIFO clamp: an ACK that reaches the hop no earlier than the last one
   computed here is not delivered before it, so neither an RTT cut nor a
   shrinking backlog can reorder a stream. An ACK that reaches the hop
   earlier than one already computed (several ACK streams with
   different upstream paths share the hop, or an upstream hop added
   noise) is not held behind it — except on a noisy hop, whose noise
   model keeps ACK-compression state and needs its input nondecreasing
   in call order.

   Then the hop's own knobs: noise, a reordering delay, and a duplicate
   that trails the ACK by one MTU serialization at the hop's rate (the
   spacing a duplicated data packet would give it). A duplicate from an
   upstream hop keeps its lag. *)
let ack_transit_at t ~ack =
  let fl = t.fl in
  let now = fl.(4) in
  sync_at t;
  let at = ack.(0) in
  let lag = ack.(1) -. at in
  let wait = fl.(0) -. now in
  let ser = float_of_int Units.ack_bytes /. t.cap_eff in
  let nominal =
    at +. (if wait > 0.0 then wait else 0.0) +. ser +. t.prop_one_way
  in
  let nominal =
    if at >= fl.(3) || t.noisy then begin
      if at > fl.(3) then fl.(3) <- at;
      if nominal >= fl.(2) then begin
        fl.(2) <- nominal;
        nominal
      end
      else fl.(2)
    end
    else nominal
  in
  let time =
    if t.noisy then Noise.ack_delivery_time t.noise ~nominal else nominal
  in
  let time =
    if Rng.bernoulli t.rng ~p:t.reorder_prob then
      time +. Rng.uniform t.rng ~lo:0.0 ~hi:t.reorder_extra
    else time
  in
  ack.(0) <- time;
  ack.(1) <-
    (if not (Float.is_nan lag) then time +. lag
     else if Rng.bernoulli t.rng ~p:t.dup_prob then
       time +. (float_of_int Units.mtu /. t.cap_eff)
     else Float.nan)

let[@inline] forward t ~now ~size ~out =
  t.fl.(4) <- now;
  forward_at t ~size ~out

let[@inline] ack_transit t ~now ~ack =
  t.fl.(4) <- now;
  ack_transit_at t ~ack
