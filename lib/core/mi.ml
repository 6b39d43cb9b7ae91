module Descriptive = Proteus_stats.Descriptive
module Regression = Proteus_stats.Regression

(* All floats: OCaml stores the record flat, so filling one in place
   stores unboxed floats and allocates nothing. *)
type metrics = {
  mutable send_rate_mbps : float;
  mutable target_rate_mbps : float;
  mutable loss_rate : float;
  mutable avg_rtt : float;
  mutable rtt_gradient : float;
  mutable rtt_deviation : float;
  mutable regression_error : float;
  mutable duration : float;
}

let zero_metrics () =
  {
    send_rate_mbps = 0.0;
    target_rate_mbps = 0.0;
    loss_rate = 0.0;
    avg_rtt = 0.0;
    rtt_gradient = 0.0;
    rtt_deviation = 0.0;
    regression_error = 0.0;
    duration = 0.0;
  }

(* A pooled record: [reset] readies it for another interval, so a
   controller can recycle completed MIs and their sample storage. The
   floats live in [fl] (0 = target rate in bytes/s, 1 = start time,
   2 = end time): a mutable float field of this mixed record would box
   on every store. The accepted samples are the first [n] entries of
   [send_times] and [rtts], arrays the MI owns and grows by doubling;
   the statistics read them in place and write to [out]. *)
type t = {
  mutable id : int;
  fl : float array;
  out : float array;
  mutable sent : int;
  mutable sent_bytes : int;
  mutable acked : int;
  mutable lost : int;
  mutable send_times : float array;
  mutable rtts : float array;
  mutable n : int;
  mutable closed : bool;
}

let reset t ~id ~times =
  t.id <- id;
  t.fl.(0) <- times.(0);
  t.fl.(1) <- times.(1);
  t.fl.(2) <- times.(1);
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
    out = Array.create_float 3;
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

(* An ACK without an accepted sample, or with a NaN one, counts for
   completion but logs nothing. *)
let record_ack_m t ~meta ~accepted =
  t.acked <- t.acked + 1;
  let rtt = meta.(2) in
  if accepted && not (Float.is_nan rtt) then begin
    if t.n = Array.length t.rtts then grow_samples t;
    Array.unsafe_set t.send_times t.n meta.(1);
    Array.unsafe_set t.rtts t.n rtt;
    t.n <- t.n + 1
  end

let record_loss t = t.lost <- t.lost + 1

let close t ~times =
  t.closed <- true;
  t.fl.(2) <- Float.max times.(2) (t.fl.(1) +. 1e-6)

let is_closed t = t.closed
let is_complete t = t.closed && t.acked + t.lost >= t.sent
let packets_sent t = t.sent

(* [Units.bytes_per_sec_to_mbps]'s arithmetic, written out so that no
   float crosses a call. *)
let[@inline] to_mbps b = b *. 8.0 /. 1e6

(* The statistics read the sample arrays in place, over their first
   [n] entries, bit-identical to copies of them. *)
let metrics_into t m =
  if not (is_complete t) then invalid_arg "Mi.metrics: MI not complete";
  let duration = t.fl.(2) -. t.fl.(1) in
  m.send_rate_mbps <- to_mbps (float_of_int t.sent_bytes /. duration);
  m.target_rate_mbps <- to_mbps t.fl.(0);
  m.loss_rate <-
    (if t.sent = 0 then 0.0 else float_of_int t.lost /. float_of_int t.sent);
  m.duration <- duration;
  let n = t.n in
  if n < 2 then begin
    m.avg_rtt <- (if n = 1 then t.rtts.(0) else 0.0);
    m.rtt_gradient <- 0.0;
    m.rtt_deviation <- 0.0;
    m.regression_error <- 0.0
  end
  else begin
    let out = t.out in
    Regression.fit_prefix_into ~x:t.send_times ~y:t.rtts ~len:n ~out;
    m.rtt_gradient <- out.(0);
    m.regression_error <- out.(2) /. duration;
    Descriptive.moments_prefix_into t.rtts ~len:n ~out;
    m.avg_rtt <- out.(0);
    m.rtt_deviation <- out.(1)
  end

let metrics t =
  let m = zero_metrics () in
  metrics_into t m;
  m
