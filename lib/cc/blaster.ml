module Sender = Proteus_net.Sender

(* All-float record: its fields are stored unboxed, so the per-packet
   calls below allocate nothing. *)
type t = {
  rate : float; (* bytes/sec *)
  mutable next_send_time : float;
}

let create ~rate_mbps (_env : Sender.env) =
  { rate = Proteus_net.Units.mbps_to_bytes_per_sec rate_mbps; next_send_time = 0.0 }

let name _ = "blaster"
let next_send_m t ~meta = meta.(3) <- t.next_send_time

let on_sent_m t ~meta ~seq:_ ~size =
  t.next_send_time <-
    Float.max meta.(0) t.next_send_time +. (float_of_int size /. t.rate)

let on_ack_m _ ~meta:_ ~seq:_ ~size:_ = ()
let on_loss_m _ ~meta:_ ~seq:_ ~size:_ = ()

let factory ~rate_mbps : Proteus_net.Sender.factory =
 fun env ->
  Sender.pack (module struct
    type nonrec t = t

    let name = name
    let next_send_m = next_send_m
    let on_sent_m = on_sent_m
    let on_ack_m = on_ack_m
    let on_loss_m = on_loss_m
  end) (create ~rate_mbps env)
