module Sender = Proteus_net.Sender
module Winfilter = Proteus_stats.Winfilter
module Mean_dev = Proteus_stats.Ewma.Mean_dev
module Rng = Proteus_stats.Rng

type params = { scavenger_dev_threshold_ms : float option }

let default = { scavenger_dev_threshold_ms = None }

(* The paper's BBR-S uses a 20 ms threshold on the kernel's smoothed RTT
   deviation, calibrated to real-Internet noise floors. The simulator's
   noise floor is ~10x lower (no NIC batching, offloads or cross
   traffic), so the same mechanism discriminates competition at ~3 ms
   here; see DESIGN.md ("BBR-S threshold calibration"). *)
let scavenger = { scavenger_dev_threshold_ms = Some 3.0 }
let high_gain = 2.885
let drain_gain = 1.0 /. high_gain
let probe_bw_gains = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
let min_cwnd_packets = 4.0
let probe_rtt_duration = 0.2

(* How long BBR-S holds minimum inflight after a deviation trigger. The
   paper uses 40 ms; the simulator re-triggers less often (smoother
   queues), so a longer hold keeps the yield duty-cycle comparable. *)
let yield_hold = 0.25
let rtprop_filter_len = 10.0 (* seconds *)
let initial_rate = 125_000.0 (* bytes/sec: pacing before any estimate *)

type state = Startup | Drain | Probe_bw | Probe_rtt

(* Float state, in one float array so that it is stored unboxed and can
   be handed to [Winfilter], [Mean_dev] and [Seq_ring], which read and
   write their floats through it (a float argument or result would be
   boxed at every call across the module boundary). *)
let f_pacing_gain = 0
let f_cwnd_gain = 1
let f_delivered = 2 (* total bytes acked *)
let f_next_send = 3
let f_srtt = 4
let f_next_round_delivered = 5 (* round counting *)
let f_full_bw = 6 (* full-pipe detection *)
let f_cycle_stamp = 7 (* gain cycling *)
let f_rtprop_stamp = 8
let f_probe_done = 9 (* PROBE_RTT hold end; NaN = not yet drained *)
let f_yield_until = 10 (* BBR-S *)
let f_dev_threshold = 11 (* BBR-S deviation threshold, s *)

(* The filters' extrema, written after each update (NaN = no sample). *)
let f_btlbw = 12
let f_rtprop = 13
let f_dev = 14 (* BBR-S smoothed RTT deviation *)

(* Scratch: a delivery-rate sample (time, rate), a window length, and a
   taken send record (delivered bytes at send). *)
let f_sample_time = 15
let f_sample = 16
let f_window = 17
let f_rec = 18
let n_floats = 19

type t = {
  mtu : int;
  params : params;
  rng : Rng.t;
  btlbw : Winfilter.t; (* max delivery rate, windowed by ~10 RTTs *)
  rtprop : Winfilter.t; (* min RTT over 10 s *)
  sent : Seq_ring.t; (* seq -> delivered bytes at send *)
  fl : float array;
  mutable state : state;
  mutable inflight : int; (* bytes *)
  mutable round_count : int;
  mutable round_start : bool;
  mutable full_bw_count : int;
  mutable filled_pipe : bool;
  mutable cycle_index : int;
  rtt_dev : Mean_dev.t;
}

let create ?(params = default) (env : Sender.env) =
  let fl = Array.make n_floats 0.0 in
  fl.(f_pacing_gain) <- high_gain;
  fl.(f_cwnd_gain) <- high_gain;
  fl.(f_srtt) <- 0.1;
  fl.(f_probe_done) <- Float.nan;
  fl.(f_yield_until) <- neg_infinity;
  fl.(f_dev_threshold) <-
    (match params.scavenger_dev_threshold_ms with
    | Some ms -> Proteus_net.Units.ms ms
    | None -> Float.nan);
  fl.(f_btlbw) <- Float.nan;
  fl.(f_rtprop) <- Float.nan;
  fl.(f_dev) <- Float.nan;
  {
    mtu = env.mtu;
    params;
    rng = env.rng;
    btlbw = Winfilter.create_max ~window:1.0;
    rtprop = Winfilter.create_min ~window:rtprop_filter_len;
    sent = Seq_ring.create ();
    fl;
    state = Startup;
    inflight = 0;
    round_count = 0;
    round_start = false;
    full_bw_count = 0;
    filled_pipe = false;
    cycle_index = 2;
    rtt_dev = Mean_dev.create ();
  }

let name t =
  match t.params.scavenger_dev_threshold_ms with
  | None -> "bbr"
  | Some _ -> "bbr-s"

let[@inline] btlbw_estimate t =
  let b = t.fl.(f_btlbw) in
  if Float.is_nan b then initial_rate else b

let[@inline] rtprop_estimate t =
  let r = t.fl.(f_rtprop) in
  if Float.is_nan r then t.fl.(f_srtt) else r

let state_fields t =
  [
    ("delivered", t.fl.(f_delivered));
    ("next_send", t.fl.(f_next_send));
    ("srtt", t.fl.(f_srtt));
    ("dev_mean", Mean_dev.mean_nan t.rtt_dev);
    ("dev", Mean_dev.deviation_nan t.rtt_dev);
  ]

let[@inline] bdp_bytes t = btlbw_estimate t *. rtprop_estimate t
let is_probing_rtt t = t.state = Probe_rtt

(* [now] is read unboxed from the call scratch; handing it to a helper
   that is not inlined would box it again at every such call. So the
   per-packet helpers below are [@inline], and the state machine reads
   it from [meta] itself. *)
let[@inline] cwnd_bytes t ~now =
  let in_min_inflight_probe =
    t.state = Probe_rtt || now < t.fl.(f_yield_until)
  in
  if in_min_inflight_probe then min_cwnd_packets *. float_of_int t.mtu
  else
    Float.max
      (t.fl.(f_cwnd_gain) *. bdp_bytes t)
      (min_cwnd_packets *. float_of_int t.mtu)

let[@inline] pacing_rate t ~now =
  let base = t.fl.(f_pacing_gain) *. btlbw_estimate t in
  if t.state = Probe_rtt || now < t.fl.(f_yield_until) then btlbw_estimate t
  else base

let next_send_m t ~meta =
  meta.(3) <-
    (if float_of_int t.inflight >= cwnd_bytes t ~now:meta.(0) then infinity
     else t.fl.(f_next_send))

let on_sent_m t ~meta ~seq ~size =
  let now = meta.(0) and fl = t.fl in
  t.inflight <- t.inflight + size;
  Seq_ring.add t.sent seq fl f_delivered;
  let rate = pacing_rate t ~now in
  fl.(f_next_send) <-
    Float.max now fl.(f_next_send) +. (float_of_int size /. rate)

let check_full_pipe t =
  if (not t.filled_pipe) && t.round_start then begin
    let bw = btlbw_estimate t in
    if bw >= t.fl.(f_full_bw) *. 1.25 then begin
      t.fl.(f_full_bw) <- bw;
      t.full_bw_count <- 0
    end
    else begin
      t.full_bw_count <- t.full_bw_count + 1;
      if t.full_bw_count >= 3 then t.filled_pipe <- true
    end
  end

let enter_probe_bw t ~now =
  t.state <- Probe_bw;
  t.fl.(f_cwnd_gain) <- 2.0;
  (* Random initial phase, skipping the 0.75 drain phase (index 1). *)
  let i = Rng.int t.rng 7 in
  t.cycle_index <- (if i >= 1 then i + 1 else i);
  t.fl.(f_cycle_stamp) <- now;
  t.fl.(f_pacing_gain) <- probe_bw_gains.(t.cycle_index)

let[@inline] advance_cycle t ~now =
  if now -. t.fl.(f_cycle_stamp) >= rtprop_estimate t then begin
    t.cycle_index <- (t.cycle_index + 1) mod Array.length probe_bw_gains;
    t.fl.(f_cycle_stamp) <- now;
    t.fl.(f_pacing_gain) <- probe_bw_gains.(t.cycle_index)
  end

let handle_state t ~meta =
  let now = meta.(0) and fl = t.fl in
  (match t.state with
  | Startup ->
      check_full_pipe t;
      if t.filled_pipe then begin
        t.state <- Drain;
        fl.(f_pacing_gain) <- drain_gain;
        fl.(f_cwnd_gain) <- high_gain
      end
  | Drain ->
      if float_of_int t.inflight <= bdp_bytes t then enter_probe_bw t ~now
  | Probe_bw -> advance_cycle t ~now
  | Probe_rtt ->
      (* Hold minimum inflight for probe_rtt_duration once the window
         has actually drained. *)
      let stamp = fl.(f_probe_done) in
      if Float.is_nan stamp then begin
        if float_of_int t.inflight <= min_cwnd_packets *. float_of_int t.mtu
        then fl.(f_probe_done) <- now +. probe_rtt_duration
      end
      else if now >= stamp then begin
        fl.(f_rtprop_stamp) <- now;
        fl.(f_probe_done) <- Float.nan;
        if t.filled_pipe then enter_probe_bw t ~now
        else begin
          t.state <- Startup;
          fl.(f_pacing_gain) <- high_gain;
          fl.(f_cwnd_gain) <- high_gain
        end
      end);
  (* RTprop staleness triggers PROBE_RTT from any state but itself. *)
  if t.state <> Probe_rtt && now -. fl.(f_rtprop_stamp) > rtprop_filter_len
  then begin
    t.state <- Probe_rtt;
    fl.(f_probe_done) <- Float.nan
  end

let on_ack_m t ~meta ~seq ~size =
  let now = meta.(0) and rtt = meta.(2) and fl = t.fl in
  t.inflight <- max 0 (t.inflight - size);
  fl.(f_delivered) <- fl.(f_delivered) +. float_of_int size;
  fl.(f_srtt) <- (0.875 *. fl.(f_srtt)) +. (0.125 *. rtt);
  fl.(f_window) <- Float.max 0.1 (10.0 *. fl.(f_srtt));
  Winfilter.set_window_from t.btlbw fl f_window;
  if Seq_ring.take t.sent seq fl f_rec then begin
    (* The send time comes back in [meta.(1)], the [now] of [on_sent_m]. *)
    let delivered_at_send = fl.(f_rec) and sent_at = meta.(1) in
    (* Round trip accounting. *)
    if delivered_at_send >= fl.(f_next_round_delivered) then begin
      fl.(f_next_round_delivered) <- fl.(f_delivered);
      t.round_count <- t.round_count + 1;
      t.round_start <- true
    end
    else t.round_start <- false;
    let interval = now -. sent_at in
    if interval > 0.0 then begin
      fl.(f_sample_time) <- now;
      fl.(f_sample) <- (fl.(f_delivered) -. delivered_at_send) /. interval;
      Winfilter.update_from t.btlbw fl ~time:f_sample_time ~value:f_sample;
      Winfilter.get_into t.btlbw fl f_btlbw
    end
  end;
  (* NaN (no sample yet) compares false. *)
  if not (rtt > fl.(f_rtprop)) then fl.(f_rtprop_stamp) <- now;
  Winfilter.update_from t.rtprop meta ~time:0 ~value:2;
  Winfilter.get_into t.rtprop fl f_rtprop;
  (* BBR-S: yield on high smoothed RTT deviation (§7.1). *)
  (match t.params.scavenger_dev_threshold_ms with
  | Some _ ->
      Mean_dev.update_from t.rtt_dev meta 2;
      Mean_dev.deviation_into t.rtt_dev fl f_dev;
      (* NaN (no deviation yet) compares false. *)
      if fl.(f_dev) > fl.(f_dev_threshold) then
        fl.(f_yield_until) <- Float.max fl.(f_yield_until) (now +. yield_hold)
  | None -> ());
  handle_state t ~meta

let on_loss_m t ~meta ~seq ~size =
  t.inflight <- max 0 (t.inflight - size);
  Seq_ring.remove t.sent seq;
  (* BBR v1 largely ignores loss (no loss-based cwnd reduction). *)
  handle_state t ~meta

let factory ?params () : Proteus_net.Sender.factory =
 fun env ->
  Sender.pack (module struct
    type nonrec t = t

    let name = name
    let next_send_m = next_send_m
    let on_sent_m = on_sent_m
    let on_ack_m = on_ack_m
    let on_loss_m = on_loss_m
  end) (create ?params env)

let scavenger_factory () = factory ~params:scavenger ()
