module Sender = Proteus_net.Sender

let min_cwnd = 2.0

type t = {
  mutable cwnd : float; (* packets *)
  mutable ssthresh : float;
  mutable inflight : int;
  mutable srtt : float;
  mutable last_reduction : float;
}

let create (_env : Sender.env) =
  {
    cwnd = 10.0;
    ssthresh = infinity;
    inflight = 0;
    srtt = 0.1;
    last_reduction = neg_infinity;
  }

let name _ = "reno"
let cwnd_packets t = t.cwnd
let srtt t = t.srtt

let next_send_m t ~meta =
  meta.(3) <- (if float_of_int t.inflight < t.cwnd then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight + 1

let on_ack_m t ~meta ~seq:_ ~size:_ =
  t.inflight <- max 0 (t.inflight - 1);
  t.srtt <- (0.875 *. t.srtt) +. (0.125 *. meta.(2));
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.0
  else t.cwnd <- t.cwnd +. (1.0 /. t.cwnd)

let on_loss_m t ~meta ~seq:_ ~size:_ =
  t.inflight <- max 0 (t.inflight - 1);
  let now = meta.(0) in
  if now -. t.last_reduction > t.srtt then begin
    t.last_reduction <- now;
    t.cwnd <- Float.max min_cwnd (t.cwnd /. 2.0);
    t.ssthresh <- t.cwnd
  end

let factory () : Proteus_net.Sender.factory =
 fun env ->
  Sender.pack (module struct
    type nonrec t = t

    let name = name
    let next_send_m = next_send_m
    let on_sent_m = on_sent_m
    let on_ack_m = on_ack_m
    let on_loss_m = on_loss_m
  end) (create env)
