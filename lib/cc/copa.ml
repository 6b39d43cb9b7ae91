module Sender = Proteus_net.Sender
module Winfilter = Proteus_stats.Winfilter

type params = { delta : float }

let default = { delta = 0.5 }
let min_cwnd = 2.0

(* Hard window cap (packets). COPA's target rate diverges while the
   measured queueing delay is ~0 (empty standing queue); real stacks are
   bounded by ssthresh/receive windows. 20k packets (30 MB) is ~2.4x the
   largest BDP in the evaluation sweeps. *)
let max_cwnd = 20_000.0

type t = {
  mtu : int;
  delta : float;
  mutable cwnd : float; (* packets *)
  mutable inflight : int;
  mutable srtt : float;
  rtt_min : Winfilter.t; (* 10 s window *)
  rtt_standing : Winfilter.t; (* srtt/2 window *)
  mutable velocity : float;
  mutable direction_up : bool;
  mutable streak : int;
  mutable last_cwnd_checkpoint : float;
  mutable last_check_time : float;
  mutable slow_start : bool;
  mutable last_ss_double : float;
}

let create ?(params = default) (env : Sender.env) =
  {
    mtu = env.mtu;
    delta = params.delta;
    cwnd = 10.0;
    inflight = 0;
    srtt = 0.1;
    rtt_min = Winfilter.create_min ~window:10.0;
    rtt_standing = Winfilter.create_min ~window:0.05;
    velocity = 1.0;
    direction_up = true;
    streak = 0;
    last_cwnd_checkpoint = 10.0;
    last_check_time = 0.0;
    slow_start = true;
    last_ss_double = 0.0;
  }

let name _ = "copa"
let cwnd_packets t = t.cwnd
let srtt t = t.srtt

let next_send_m t ~meta =
  meta.(3) <- (if float_of_int t.inflight < t.cwnd then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight + 1

(* Velocity doubles after the window has moved in the same direction
   for three consecutive RTTs, and resets on a direction change. *)
let update_velocity t ~now =
  if now -. t.last_check_time >= t.srtt then begin
    let up = t.cwnd >= t.last_cwnd_checkpoint in
    if up = t.direction_up then begin
      t.streak <- t.streak + 1;
      if t.streak >= 3 then t.velocity <- Float.min (t.velocity *. 2.0) 1024.0
    end
    else begin
      t.direction_up <- up;
      t.streak <- 0;
      t.velocity <- 1.0
    end;
    t.last_cwnd_checkpoint <- t.cwnd;
    t.last_check_time <- now
  end

let on_ack_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) and rtt = meta.(2) in
  t.inflight <- max 0 (t.inflight - 1);
  t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt);
  Winfilter.set_window t.rtt_standing (Float.max 0.004 (t.srtt /. 2.0));
  Winfilter.update t.rtt_min ~now rtt;
  Winfilter.update t.rtt_standing ~now rtt;
  let rtt_min = Winfilter.get_exn t.rtt_min in
  let standing = Float.max (Winfilter.get_exn t.rtt_standing) rtt_min in
  let dq = standing -. rtt_min in
  (* Current rate vs target rate, both in packets/sec. *)
  let current_rate = t.cwnd /. standing in
  let target_rate = if dq <= 1e-6 then infinity else 1.0 /. (t.delta *. dq) in
  if t.slow_start then begin
    if current_rate < target_rate then begin
      (* Double once per RTT. *)
      if now -. t.last_ss_double >= t.srtt then begin
        t.cwnd <- Float.min max_cwnd (t.cwnd *. 2.0);
        t.last_ss_double <- now
      end
    end
    else t.slow_start <- false
  end
  else begin
    update_velocity t ~now;
    let step = t.velocity /. (t.delta *. t.cwnd) in
    if current_rate <= target_rate then
      t.cwnd <- Float.min max_cwnd (t.cwnd +. step)
    else t.cwnd <- Float.max min_cwnd (t.cwnd -. step)
  end

(* COPA does not reduce its window on loss (its delay signal backs it
   off before persistent congestion loss) — that is what gives it the
   random-loss tolerance of Fig. 4 — but, like real implementations, a
   loss does terminate slow-start's unbounded doubling. *)
let on_loss_m t ~meta:_ ~seq:_ ~size:_ =
  t.inflight <- max 0 (t.inflight - 1);
  t.slow_start <- false;
  (* A loss also resets the velocity: the amplified window growth that
     built up against a seemingly-empty queue was clearly miscalibrated. *)
  t.velocity <- 1.0;
  t.streak <- 0

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
