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

type pkt_meta = { delivered_at_send : float; sent_at : float }

type t = {
  mtu : int;
  params : params;
  rng : Rng.t;
  btlbw : Winfilter.t; (* max delivery rate, windowed by ~10 RTTs *)
  rtprop : Winfilter.t; (* min RTT over 10 s *)
  meta : (int, pkt_meta) Hashtbl.t;
  mutable state : state;
  mutable pacing_gain : float;
  mutable cwnd_gain : float;
  mutable inflight : int; (* bytes *)
  mutable delivered : float; (* total bytes acked *)
  mutable next_send_time : float;
  mutable srtt : float;
  (* round counting *)
  mutable next_round_delivered : float;
  mutable round_count : int;
  mutable round_start : bool;
  (* full-pipe detection *)
  mutable full_bw : float;
  mutable full_bw_count : int;
  mutable filled_pipe : bool;
  (* gain cycling *)
  mutable cycle_index : int;
  mutable cycle_stamp : float;
  (* probe rtt *)
  mutable rtprop_stamp : float;
  mutable probe_rtt_done_stamp : float option;
  (* BBR-S *)
  rtt_dev : Mean_dev.t;
  mutable yield_until : float;
}

let create ?(params = default) (env : Sender.env) =
  {
    mtu = env.mtu;
    params;
    rng = env.rng;
    btlbw = Winfilter.create_max ~window:1.0;
    rtprop = Winfilter.create_min ~window:rtprop_filter_len;
    meta = Hashtbl.create 1024;
    state = Startup;
    pacing_gain = high_gain;
    cwnd_gain = high_gain;
    inflight = 0;
    delivered = 0.0;
    next_send_time = 0.0;
    srtt = 0.1;
    next_round_delivered = 0.0;
    round_count = 0;
    round_start = false;
    full_bw = 0.0;
    full_bw_count = 0;
    filled_pipe = false;
    cycle_index = 2;
    cycle_stamp = 0.0;
    rtprop_stamp = 0.0;
    probe_rtt_done_stamp = None;
    rtt_dev = Mean_dev.create ();
    yield_until = neg_infinity;
  }

let name t =
  match t.params.scavenger_dev_threshold_ms with
  | None -> "bbr"
  | Some _ -> "bbr-s"

let btlbw_estimate t =
  match Winfilter.get t.btlbw with Some b -> b | None -> initial_rate

let rtprop_estimate t =
  match Winfilter.get t.rtprop with Some r -> r | None -> t.srtt

let bdp_bytes t = btlbw_estimate t *. rtprop_estimate t
let is_probing_rtt t = t.state = Probe_rtt

(* [now] is read unboxed from the call scratch; handing it to a helper
   that is not inlined would box it again at every such call. So the
   per-packet helpers below are [@inline], and the state machine reads
   it from [meta] itself. *)
let[@inline] cwnd_bytes t ~now =
  let in_min_inflight_probe =
    t.state = Probe_rtt || now < t.yield_until
  in
  if in_min_inflight_probe then min_cwnd_packets *. float_of_int t.mtu
  else
    Float.max
      (t.cwnd_gain *. bdp_bytes t)
      (min_cwnd_packets *. float_of_int t.mtu)

let[@inline] pacing_rate t ~now =
  let base = t.pacing_gain *. btlbw_estimate t in
  if t.state = Probe_rtt || now < t.yield_until then btlbw_estimate t
  else base

let next_send_m t ~meta =
  meta.(3) <-
    (if float_of_int t.inflight >= cwnd_bytes t ~now:meta.(0) then infinity
     else t.next_send_time)

let on_sent_m t ~meta ~seq ~size =
  let now = meta.(0) in
  t.inflight <- t.inflight + size;
  Hashtbl.replace t.meta seq { delivered_at_send = t.delivered; sent_at = now };
  let rate = pacing_rate t ~now in
  t.next_send_time <-
    Float.max now t.next_send_time +. (float_of_int size /. rate)

let check_full_pipe t =
  if (not t.filled_pipe) && t.round_start then begin
    let bw = btlbw_estimate t in
    if bw >= t.full_bw *. 1.25 then begin
      t.full_bw <- bw;
      t.full_bw_count <- 0
    end
    else begin
      t.full_bw_count <- t.full_bw_count + 1;
      if t.full_bw_count >= 3 then t.filled_pipe <- true
    end
  end

let enter_probe_bw t ~now =
  t.state <- Probe_bw;
  t.cwnd_gain <- 2.0;
  (* Random initial phase, skipping the 0.75 drain phase (index 1). *)
  let i = Rng.int t.rng 7 in
  t.cycle_index <- (if i >= 1 then i + 1 else i);
  t.cycle_stamp <- now;
  t.pacing_gain <- probe_bw_gains.(t.cycle_index)

let[@inline] advance_cycle t ~now =
  if now -. t.cycle_stamp >= rtprop_estimate t then begin
    t.cycle_index <- (t.cycle_index + 1) mod Array.length probe_bw_gains;
    t.cycle_stamp <- now;
    t.pacing_gain <- probe_bw_gains.(t.cycle_index)
  end

let handle_state t ~meta =
  let now = meta.(0) in
  (match t.state with
  | Startup ->
      check_full_pipe t;
      if t.filled_pipe then begin
        t.state <- Drain;
        t.pacing_gain <- drain_gain;
        t.cwnd_gain <- high_gain
      end
  | Drain ->
      if float_of_int t.inflight <= bdp_bytes t then enter_probe_bw t ~now
  | Probe_bw -> advance_cycle t ~now
  | Probe_rtt -> (
      (* Hold minimum inflight for probe_rtt_duration once the window
         has actually drained. *)
      match t.probe_rtt_done_stamp with
      | None ->
          if float_of_int t.inflight <= min_cwnd_packets *. float_of_int t.mtu
          then t.probe_rtt_done_stamp <- Some (now +. probe_rtt_duration)
      | Some stamp ->
          if now >= stamp then begin
            t.rtprop_stamp <- now;
            t.probe_rtt_done_stamp <- None;
            if t.filled_pipe then enter_probe_bw t ~now
            else begin
              t.state <- Startup;
              t.pacing_gain <- high_gain;
              t.cwnd_gain <- high_gain
            end
          end));
  (* RTprop staleness triggers PROBE_RTT from any state but itself. *)
  if t.state <> Probe_rtt && now -. t.rtprop_stamp > rtprop_filter_len then begin
    t.state <- Probe_rtt;
    t.probe_rtt_done_stamp <- None
  end

let on_ack_m t ~meta ~seq ~size =
  let now = meta.(0) and rtt = meta.(2) in
  t.inflight <- max 0 (t.inflight - size);
  t.delivered <- t.delivered +. float_of_int size;
  t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt);
  Winfilter.set_window t.btlbw (Float.max 0.1 (10.0 *. t.srtt));
  (match Hashtbl.find_opt t.meta seq with
  | Some { delivered_at_send; sent_at } ->
      Hashtbl.remove t.meta seq;
      (* Round trip accounting. *)
      if delivered_at_send >= t.next_round_delivered then begin
        t.next_round_delivered <- t.delivered;
        t.round_count <- t.round_count + 1;
        t.round_start <- true
      end
      else t.round_start <- false;
      let interval = now -. sent_at in
      if interval > 0.0 then begin
        let rate = (t.delivered -. delivered_at_send) /. interval in
        Winfilter.update t.btlbw ~now rate
      end
  | None -> ());
  (match Winfilter.get t.rtprop with
  | Some cur when rtt > cur -> ()
  | _ -> t.rtprop_stamp <- now);
  Winfilter.update t.rtprop ~now rtt;
  (* BBR-S: yield on high smoothed RTT deviation (§7.1). *)
  (match t.params.scavenger_dev_threshold_ms with
  | Some threshold_ms ->
      Mean_dev.update t.rtt_dev rtt;
      (* NaN (no deviation yet) compares false. *)
      if Mean_dev.deviation_nan t.rtt_dev > Proteus_net.Units.ms threshold_ms
      then t.yield_until <- Float.max t.yield_until (now +. yield_hold)
  | None -> ());
  handle_state t ~meta

let on_loss_m t ~meta ~seq ~size =
  t.inflight <- max 0 (t.inflight - size);
  Hashtbl.remove t.meta seq;
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
