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

(* Float state, in one float array so that it is stored unboxed and can
   be handed to [Winfilter], which reads and writes its floats through
   it (a float argument or result would be boxed at every call across
   the module boundary). *)
let f_cwnd = 0 (* packets *)
let f_srtt = 1
let f_velocity = 2
let f_checkpoint = 3 (* window at the last velocity check *)
let f_check_time = 4
let f_ss_double = 5 (* last slow-start doubling *)
let f_window = 6 (* scratch: the standing filter's window *)
let f_rtt_min = 7 (* the filters' minima after this ACK's update *)
let f_standing = 8
let n_floats = 9

type t = {
  mtu : int;
  delta : float;
  fl : float array;
  mutable inflight : int;
  rtt_min : Winfilter.t; (* 10 s window *)
  rtt_standing : Winfilter.t; (* srtt/2 window *)
  mutable direction_up : bool;
  mutable streak : int;
  mutable slow_start : bool;
}

let create ?(params = default) (env : Sender.env) =
  let fl = Array.make n_floats 0.0 in
  fl.(f_cwnd) <- 10.0;
  fl.(f_srtt) <- 0.1;
  fl.(f_velocity) <- 1.0;
  fl.(f_checkpoint) <- 10.0;
  fl.(f_rtt_min) <- Float.nan;
  fl.(f_standing) <- Float.nan;
  {
    mtu = env.mtu;
    delta = params.delta;
    fl;
    inflight = 0;
    rtt_min = Winfilter.create_min ~window:10.0;
    rtt_standing = Winfilter.create_min ~window:0.05;
    direction_up = true;
    streak = 0;
    slow_start = true;
  }

let name _ = "copa"
let cwnd_packets t = t.fl.(f_cwnd)
let srtt t = t.fl.(f_srtt)

let state_fields t =
  [
    ("velocity", t.fl.(f_velocity));
    ("standing", t.fl.(f_standing));
    ("rtt_min", t.fl.(f_rtt_min));
    ("checkpoint", t.fl.(f_checkpoint));
    ("check_time", t.fl.(f_check_time));
  ]

let next_send_m t ~meta =
  meta.(3) <-
    (if float_of_int t.inflight < t.fl.(f_cwnd) then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight + 1

(* Velocity doubles after the window has moved in the same direction
   for three consecutive RTTs, and resets on a direction change.
   Inlined, so the unboxed [now] is not boxed again. *)
let[@inline] update_velocity t ~now =
  let fl = t.fl in
  if now -. fl.(f_check_time) >= fl.(f_srtt) then begin
    let up = fl.(f_cwnd) >= fl.(f_checkpoint) in
    if up = t.direction_up then begin
      t.streak <- t.streak + 1;
      if t.streak >= 3 then
        fl.(f_velocity) <- Float.min (fl.(f_velocity) *. 2.0) 1024.0
    end
    else begin
      t.direction_up <- up;
      t.streak <- 0;
      fl.(f_velocity) <- 1.0
    end;
    fl.(f_checkpoint) <- fl.(f_cwnd);
    fl.(f_check_time) <- now
  end

let on_ack_m t ~meta ~seq:_ ~size:_ =
  let now = meta.(0) and rtt = meta.(2) and fl = t.fl in
  t.inflight <- max 0 (t.inflight - 1);
  fl.(f_srtt) <- (0.875 *. fl.(f_srtt)) +. (0.125 *. rtt);
  fl.(f_window) <- Float.max 0.004 (fl.(f_srtt) /. 2.0);
  Winfilter.set_window_from t.rtt_standing fl f_window;
  Winfilter.update_from t.rtt_min meta ~time:0 ~value:2;
  Winfilter.update_from t.rtt_standing meta ~time:0 ~value:2;
  Winfilter.get_into t.rtt_min fl f_rtt_min;
  Winfilter.get_into t.rtt_standing fl f_standing;
  let rtt_min = fl.(f_rtt_min) in
  let standing = Float.max fl.(f_standing) rtt_min in
  let dq = standing -. rtt_min in
  (* Current rate vs target rate, both in packets/sec. *)
  let cwnd = fl.(f_cwnd) in
  let current_rate = cwnd /. standing in
  let target_rate = if dq <= 1e-6 then infinity else 1.0 /. (t.delta *. dq) in
  if t.slow_start then begin
    if current_rate < target_rate then begin
      (* Double once per RTT. *)
      if now -. fl.(f_ss_double) >= fl.(f_srtt) then begin
        fl.(f_cwnd) <- Float.min max_cwnd (cwnd *. 2.0);
        fl.(f_ss_double) <- now
      end
    end
    else t.slow_start <- false
  end
  else begin
    update_velocity t ~now;
    let step = fl.(f_velocity) /. (t.delta *. cwnd) in
    if current_rate <= target_rate then
      fl.(f_cwnd) <- Float.min max_cwnd (cwnd +. step)
    else fl.(f_cwnd) <- Float.max min_cwnd (cwnd -. step)
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
  t.fl.(f_velocity) <- 1.0;
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
