(* One packet's round trip over a dumbbell-shaped pair of links, for
   link-level tests: the packet crosses [fwd] ([Link.forward]) and its
   ACK crosses [rev] ([Link.ack_transit]), at the admission instant, as
   the runner does for a one-hop route. When a dropped packet is
   notified is the runner's business; [losses] observes it there. *)

module Link = Proteus_net.Link

type t = { fwd : Link.t; rev : Link.t; pkt : float array }

type outcome =
  | Delivered of { ack_time : float; rtt : float; dup_ack_time : float }
  | Dropped

(* Both links draw from [rng] in creation order, forward first, so the
   forward link's stream is the one a lone [Link.create ~id:0 cfg ~rng] gets. *)
let create ?rev cfg ~rng =
  let fwd = Link.create ~id:0 cfg ~rng in
  let rev = Link.create ~id:1 (Option.value rev ~default:cfg) ~rng in
  { fwd; rev; pkt = [| 0.0; 0.0 |] }

let send t ~now ~size =
  if Link.forward t.fwd ~now ~size ~out:t.pkt then begin
    t.pkt.(1) <- Float.nan;
    Link.ack_transit t.rev ~now ~ack:t.pkt;
    Delivered
      { ack_time = t.pkt.(0); rtt = t.pkt.(0) -. now; dup_ack_time = t.pkt.(1) }
  end
  else Dropped

(* Serialization time of one ACK at [bw] Mbps. *)
let ack_ser bw =
  float_of_int Proteus_net.Units.ack_bytes /. Proteus_net.Units.mbps_to_bytes_per_sec bw

(* Run [factory] alone on [Runner.create cfg] until [until] with the
   trace bus on, and return every lost packet as (send time, loss
   notification time), in notification order. *)
let losses ?stop cfg ~factory ~until =
  let module Trace = Proteus_obs.Trace in
  let module Runner = Proteus_net.Runner in
  let trace = Trace.create ~capacity:(1 lsl 16) () in
  let r = Runner.create ~trace cfg in
  ignore (Runner.add_flow r ?stop ~label:"probe" ~factory);
  Runner.run r ~until;
  if Trace.dropped trace <> 0 then failwith "Round_trip.losses: trace ring overflowed";
  let sent = Hashtbl.create 64 in
  let out = ref [] in
  Trace.iter trace ~f:(fun (e : Trace.event) ->
      match e.kind with
      | Trace.Send -> Hashtbl.replace sent e.seq e.time
      | Trace.Loss -> out := (Hashtbl.find sent e.seq, e.time) :: !out
      | _ -> ());
  List.rev !out
