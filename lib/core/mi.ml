module Descriptive = Proteus_stats.Descriptive
module Regression = Proteus_stats.Regression

type metrics = {
  send_rate_mbps : float;
  target_rate_mbps : float;
  loss_rate : float;
  avg_rtt : float;
  rtt_gradient : float;
  rtt_deviation : float;
  regression_error : float;
  n_rtt_samples : int;
  duration : float;
}

(* A pooled record: [reset] readies it for another interval, so a
   controller can recycle completed MIs and their sample storage. The
   floats live in [fl] (0 = target rate in bytes/s, 1 = start time,
   2 = end time): a mutable float field of this mixed record would box
   on every store. The accepted samples are the first [n] entries of
   [send_times] and [rtts], arrays the MI owns and grows by doubling;
   the controller hands them to the statistics in place. *)
type t = {
  mutable id : int;
  fl : float array;
  mutable sent : int;
  mutable sent_bytes : int;
  mutable acked : int;
  mutable lost : int;
  mutable send_times : float array;
  mutable rtts : float array;
  mutable n : int;
  mutable closed : bool;
}

let reset t ~id ~target_rate ~start_time =
  t.id <- id;
  t.fl.(0) <- target_rate;
  t.fl.(1) <- start_time;
  t.fl.(2) <- start_time;
  t.sent <- 0;
  t.sent_bytes <- 0;
  t.acked <- 0;
  t.lost <- 0;
  t.n <- 0;
  t.closed <- false

let create ~id ~target_rate ~start_time =
  {
    id;
    fl = [| target_rate; start_time; start_time |];
    sent = 0;
    sent_bytes = 0;
    acked = 0;
    lost = 0;
    send_times = Array.create_float 32;
    rtts = Array.create_float 32;
    n = 0;
    closed = false;
  }

let id t = t.id
let target_rate t = t.fl.(0)
let start_time t = t.fl.(1)

let[@inline] record_sent t ~size =
  t.sent <- t.sent + 1;
  t.sent_bytes <- t.sent_bytes + size

let grow_samples t =
  let grow a =
    let b = Array.create_float (2 * t.n) in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.send_times <- grow t.send_times;
  t.rtts <- grow t.rtts

let[@inline] push_sample t send_time rtt =
  if t.n = Array.length t.rtts then grow_samples t;
  Array.unsafe_set t.send_times t.n send_time;
  Array.unsafe_set t.rtts t.n rtt;
  t.n <- t.n + 1

(* An ACK without a sample, or with a NaN one, counts for completion
   but logs nothing. *)
let record_ack t ~send_time ~rtt =
  t.acked <- t.acked + 1;
  match rtt with
  | Some r when not (Float.is_nan r) -> push_sample t send_time r
  | _ -> ()

let record_ack_m t ~meta ~accepted =
  t.acked <- t.acked + 1;
  let rtt = meta.(2) in
  if accepted && not (Float.is_nan rtt) then push_sample t meta.(1) rtt

let record_loss t = t.lost <- t.lost + 1

let close t ~end_time =
  t.closed <- true;
  t.fl.(2) <- Float.max end_time (t.fl.(1) +. 1e-6)

let is_closed t = t.closed
let is_complete t = t.closed && t.acked + t.lost >= t.sent
let packets_sent t = t.sent

(* The statistics read the sample arrays in place, over their first
   [n] entries, bit-identical to copies of them. *)
let metrics t =
  if not (is_complete t) then invalid_arg "Mi.metrics: MI not complete";
  let duration = t.fl.(2) -. t.fl.(1) in
  let send_rate_bytes = float_of_int t.sent_bytes /. duration in
  let n = t.n in
  let send_rate_mbps = Proteus_net.Units.bytes_per_sec_to_mbps send_rate_bytes in
  let target_rate_mbps = Proteus_net.Units.bytes_per_sec_to_mbps t.fl.(0) in
  let loss_rate =
    if t.sent = 0 then 0.0 else float_of_int t.lost /. float_of_int t.sent
  in
  if n < 2 then
    {
      send_rate_mbps;
      target_rate_mbps;
      loss_rate;
      avg_rtt = (if n = 1 then t.rtts.(0) else 0.0);
      rtt_gradient = 0.0;
      rtt_deviation = 0.0;
      regression_error = 0.0;
      n_rtt_samples = n;
      duration;
    }
  else begin
    let y = t.rtts in
    let fit = Regression.fit_prefix ~x:t.send_times ~y ~len:n in
    {
      send_rate_mbps;
      target_rate_mbps;
      loss_rate;
      avg_rtt = Descriptive.mean_prefix y ~len:n;
      rtt_gradient = fit.Regression.slope;
      rtt_deviation = Descriptive.stddev_prefix y ~len:n;
      regression_error = fit.Regression.residual_rms /. duration;
      n_rtt_samples = n;
      duration;
    }
  end
