module Sender = Proteus_net.Sender

let min_cwnd = 2.0

(* The window state is an all-float record, stored flat, so the
   per-ACK stores box nothing. *)
type window = {
  mutable cwnd : float; (* packets *)
  mutable ssthresh : float;
  mutable srtt : float;
  mutable last_reduction : float;
}

type t = { w : window; mutable inflight : int }

let create (_env : Sender.env) =
  {
    w =
      {
        cwnd = 10.0;
        ssthresh = infinity;
        srtt = 0.1;
        last_reduction = neg_infinity;
      };
    inflight = 0;
  }

let name _ = "reno"
let cwnd_packets t = t.w.cwnd
let srtt t = t.w.srtt

let next_send_m t ~meta =
  meta.(3) <- (if float_of_int t.inflight < t.w.cwnd then meta.(0) else infinity)

let on_sent_m t ~meta:_ ~seq:_ ~size:_ = t.inflight <- t.inflight + 1

let on_ack_m t ~meta ~seq:_ ~size:_ =
  let w = t.w in
  t.inflight <- max 0 (t.inflight - 1);
  w.srtt <- (0.875 *. w.srtt) +. (0.125 *. meta.(2));
  if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. 1.0
  else w.cwnd <- w.cwnd +. (1.0 /. w.cwnd)

let on_loss_m t ~meta ~seq:_ ~size:_ =
  let w = t.w in
  t.inflight <- max 0 (t.inflight - 1);
  let now = meta.(0) in
  if now -. w.last_reduction > w.srtt then begin
    w.last_reduction <- now;
    w.cwnd <- Float.max min_cwnd (w.cwnd /. 2.0);
    w.ssthresh <- w.cwnd
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
