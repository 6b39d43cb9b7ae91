module Sim = Proteus_eventsim.Sim
module Rng = Proteus_stats.Rng
module Trace = Proteus_obs.Trace
module Metrics = Proteus_obs.Metrics

(* Cap on packets transmitted per poll before yielding back to the event
   loop, so simultaneous events from other flows interleave fairly. *)
let burst_cap = 64

(* Per-flow in-flight packet state lives in a slot ring:
   transmitting a packet fills a recycled slot and schedules one of the
   flow's registered handlers (ack / loss / hop) on its link's lane
   with the slot index as argument, so steady-state transmission
   allocates nothing — the closure-per-packet pattern is gone. Slots are
   free-listed rather than FIFO because ACK-path noise can reorder
   delivery times. *)

type flow = {
  label : string;
  id : int; (* dense index; doubles as the auditor's flow id *)
  sender : Sender.packed;
  stats : Flow_stats.t;
  (* Static route: link ids traversed forward / retraced by ACKs. *)
  route_fwd : int array;
  route_rev : int array;
  mutable next_seq : int;
  mutable remaining : int; (* bytes not yet handed to the link; -1 = unbounded *)
  total_bytes : int; (* -1 = bulk flow, never completes *)
  mutable acked_bytes : int;
  start : float;
  stop : float option;
  mutable blocked : bool;
  mutable paused : bool;
  mutable poll_pending : bool;
  mutable complete : bool;
  mutable completed_at : float option;
  on_complete : (now:float -> unit) option;
  on_ack_bytes : (now:float -> int -> unit) option;
  (* In-flight ring, one int and one float array interleaved by slot id
     (see [ri_seq] ... [rf_rtt]), so an event touches at most two pages
     of the flow's ring. [ring_free] is a stack of free slot ids and as
     long as the ring's capacity. *)
  mutable ring_i : int array;
  mutable ring_f : float array;
  mutable ring_free : int array;
  mutable ring_free_len : int;
  (* Event handlers, registered once per flow in [add_flow]. *)
  mutable ack_h : Sim.handler;
  mutable loss_h : Sim.handler;
  mutable dup_h : Sim.handler;
  mutable poll_h : Sim.handler;
  mutable hop_h : Sim.handler;
}

type t = {
  sim : Sim.t;
  links : Link.t array;
  fluid_present : bool; (* at least one link carries a fluid aggregate *)
  default_route : Topology.route option; (* for flows that name none *)
  lanes : Sim.lane array; (* one per link, indexed by link id *)
  root_rng : Rng.t;
  trace : Trace.t;
  (* Reusable scratch for [Link.forward] / [Link.ack_transit]: 0 = the
     packet's (then its ACK's) time, 1 = a duplicate ACK's time. *)
  pkt : float array;
  (* Reusable scratch for the [Sender] call protocol (see [Sender.S]):
     0 = now, 1 = send_time, 2 = rtt, 3 = next-send result, 4 =
     in-flight packets, 5 = delivered bytes (the two runner-supplied
     datapath signals). Safe to share across flows —
     each event handler fills it before the sender call it guards, and
     sender calls don't nest. *)
  meta : float array;
  mutable flows : flow list;
  mutable next_id : int;
  mutable audit : Audit.t option;
}

let create_topo ?(seed = 42) ?(trace = Trace.disabled) ?kernel:_ topo =
  let root_rng = Rng.create ~seed in
  let sim = Sim.create () in
  (* Links are instantiated in id order with one RNG split each.
     Explicit loop: [Array.init]'s evaluation order is unspecified and
     the splits are order-sensitive. *)
  let n = Topology.num_links topo in
  let link i =
    Link.create ~trace ~id:i (Topology.link_config topo i)
      ~rng:(Rng.split root_rng)
  in
  let first = link 0 in
  let links = Array.make n first in
  for i = 1 to n - 1 do
    links.(i) <- link i
  done;
  (* Lane ids coincide with link ids (explicit creation order). *)
  let lanes = Array.make n (Sim.lane sim) in
  for i = 1 to n - 1 do
    lanes.(i) <- Sim.lane sim
  done;
  (* Fluid background aggregates attach after all link RNG splits, so a
     topology with fluid classes draws the same link/flow RNG streams
     as the identical topology without them (the fluid integrator is
     deterministic and owns no RNG). *)
  let fluid_present = ref false in
  for i = 0 to n - 1 do
    match Topology.instantiate_fluid topo i with
    | Some agg ->
        Link.attach_fluid links.(i) agg;
        fluid_present := true
    | None -> ()
  done;
  {
    sim;
    links;
    fluid_present = !fluid_present;
    default_route = Topology.default_route topo;
    lanes;
    root_rng;
    trace;
    pkt = Array.make 2 0.0;
    meta = Array.make 4 0.0;
    flows = [];
    next_id = 0;
    audit = None;
  }

let create ?seed ?trace ?kernel link_cfg =
  create_topo ?seed ?trace ?kernel (Topology.dumbbell link_cfg)

let attach_audit ?trace t =
  let a = Audit.create ?trace ~obs:t.trace () in
  (* [t.flows] is newest-first; register in id order so the auditor's
     ids coincide with [flow.id]. *)
  List.iter
    (fun f ->
      let id = Audit.register_flow a ~label:f.label in
      assert (id = f.id))
    (List.rev t.flows);
  Array.iteri
    (fun i l ->
      match Link.fluid l with
      | Some agg ->
          Audit.register_fluid a ~link:i ~totals:(fun () ->
              Aggregate.totals agg)
      | None -> ())
    t.links;
  t.audit <- Some a;
  a

let audit t = t.audit

let sim t = t.sim

let link_at t i = t.links.(i)
let num_links t = Array.length t.links

(* Bring every fluid aggregate up to the current instant so byte totals
   and backlogs read consistently (links otherwise sync lazily, on the
   next packet touching them). *)
let sync_fluid t =
  if t.fluid_present then begin
    let now = Sim.now t.sim in
    Array.iter
      (fun l -> if Link.fluid l <> None then Link.sync_fluid l ~now)
      t.links
  end
let rng t = t.root_rng
let stats f = f.stats
let label f = f.label
let sender f = f.sender
let is_complete f = f.complete
let completion_time f = f.completed_at

let sending_allowed t f =
  (not f.complete) && (not f.paused)
  && (match f.stop with Some s -> Sim.now t.sim < s | None -> true)
  && f.remaining <> 0

(* Ring layout: slot [idx] holds its seq, size and hop (the index into
   [route_fwd] of the hop in progress) at [ring_i.(3 idx + 0/1/2)], and
   its send time and RTT at [ring_f.(2 idx + 0/1)]. *)
let ri_stride = 3
let ri_seq = 0
let ri_size = 1
let ri_hop = 2
let rf_stride = 2
let rf_send = 0
let rf_rtt = 1

let[@inline] ri f idx field = Array.unsafe_get f.ring_i ((ri_stride * idx) + field)

let[@inline] set_ri f idx field v =
  Array.unsafe_set f.ring_i ((ri_stride * idx) + field) v

let[@inline] rf f idx field = Array.unsafe_get f.ring_f ((rf_stride * idx) + field)

let[@inline] set_rf f idx field v =
  Array.unsafe_set f.ring_f ((rf_stride * idx) + field) v

let acquire_slot f =
  if f.ring_free_len = 0 then begin
    let cap = Array.length f.ring_free in
    let ncap = max 32 (2 * cap) in
    let ring_i = Array.make (ri_stride * ncap) 0 in
    Array.blit f.ring_i 0 ring_i 0 (ri_stride * cap);
    f.ring_i <- ring_i;
    let ring_f = Array.make (rf_stride * ncap) 0.0 in
    Array.blit f.ring_f 0 ring_f 0 (rf_stride * cap);
    f.ring_f <- ring_f;
    f.ring_free <- Array.make ncap 0;
    for i = 0 to ncap - cap - 1 do
      f.ring_free.(i) <- cap + i
    done;
    f.ring_free_len <- ncap - cap
  end;
  f.ring_free_len <- f.ring_free_len - 1;
  (* Ring indices handed out here stay valid for the slot's lifetime:
     the rings only grow, and every unsafe access below uses an index
     that came from [acquire_slot] and has not been released yet. *)
  Array.unsafe_get f.ring_free f.ring_free_len

let release_slot f idx =
  Array.unsafe_set f.ring_free f.ring_free_len idx;
  f.ring_free_len <- f.ring_free_len + 1

(* Schedule a packet-path event (ACK delivery, loss notification, hop
   arrival) produced by [link] on the link's lane — per-link delivery
   times are (nearly) nondecreasing, so the FIFO fast path almost always
   applies and non-monotone stragglers (reordering noise, loss
   notifications) fall back to the wheel inside [Sim.lane_push],
   keeping the global (time, seq) order exact either way. *)
let[@inline] sched_link t ~link ~time ~fn ~arg =
  Sim.lane_push t.sim t.lanes.(link) ~time ~seq:(Sim.reserve_seq t.sim) ~fn
    ~arg

(* ---------- packet path ----------

   A packet is admitted to hop [k]'s queue ([Link.forward]); unless [k]
   is the last forward hop, [hop_fn] fires at the far end to admit it to
   hop [k+1]. A drop can happen at any hop (outage, random loss, tail
   drop); the loss notification then accumulates the residual queue
   wait at the dropping hop plus the propagation of the remaining
   forward hops and the whole reverse route — the gap is revealed by a
   later packet's ACK.

   Eager ACK rule: the ACK time is fixed when the packet is admitted to
   its last forward hop. The ACK retraces the reverse route at that
   instant, each reverse hop contributing its current data backlog, the
   ACK's serialization, one propagation delay and its own ACK knobs
   ([Link.ack_transit]). A one-hop route therefore costs one lane event
   per packet (plus one per duplicate ACK). *)

(* The packet reaches the receiver at [t.pkt.(0)]: walk the reverse
   route now and schedule the ACK (and any duplicate). ACK times are
   clamped by the last reverse link, so its lane is the natural home;
   routes without reverse links deliver at the last forward hop's
   arrival time, on that hop's lane. *)
let[@inline] ack_route t f idx ~now =
  let pkt = t.pkt in
  pkt.(1) <- Float.nan;
  let rev = f.route_rev in
  for j = 0 to Array.length rev - 1 do
    Link.ack_transit t.links.(rev.(j)) ~now ~ack:pkt
  done;
  let send = rf f idx rf_send in
  set_rf f idx rf_rtt (pkt.(0) -. send);
  let lane =
    if Array.length rev > 0 then rev.(Array.length rev - 1)
    else f.route_fwd.(Array.length f.route_fwd - 1)
  in
  sched_link t ~link:lane ~time:pkt.(0) ~fn:f.ack_h ~arg:idx;
  let dup_time = pkt.(1) in
  if not (Float.is_nan dup_time) then begin
    (* A second slot carries the same packet identity so the duplicate
       fires through its own reusable handler. *)
    let didx = acquire_slot f in
    set_ri f didx ri_seq (ri f idx ri_seq);
    set_ri f didx ri_size (ri f idx ri_size);
    set_rf f didx rf_send send;
    set_rf f didx rf_rtt (dup_time -. send);
    sched_link t ~link:lane ~time:dup_time ~fn:f.dup_h ~arg:didx
  end

(* Reads the clock itself: a [~now] argument would box on every call. *)
let admit_hop t f idx =
  let now = Sim.now t.sim in
  let k = ri f idx ri_hop in
  let link_id = f.route_fwd.(k) in
  let link = t.links.(link_id) in
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~kind:Trace.Queue_sample ~flow:f.id ~seq:0
      ~a:(Link.backlog_bytes link ~now)
      ~b:(float_of_int link_id) ~note:"";
  if Link.forward link ~now ~size:(ri f idx ri_size) ~out:t.pkt then begin
    (match t.audit with
    | Some a -> Audit.on_hop_enter a ~link:link_id ~now
    | None -> ());
    if k + 1 < Array.length f.route_fwd then
      sched_link t ~link:link_id ~time:t.pkt.(0) ~fn:f.hop_h ~arg:idx
    else ack_route t f idx ~now
  end
  else begin
    (match t.audit with
    | Some a -> Audit.on_hop_drop a ~link:link_id ~now
    | None -> ());
    let notify = ref (now +. Link.queue_delay link ~now) in
    for j = k to Array.length f.route_fwd - 1 do
      notify := !notify +. Link.one_way_delay t.links.(f.route_fwd.(j)) ~now
    done;
    for j = 0 to Array.length f.route_rev - 1 do
      notify := !notify +. Link.one_way_delay t.links.(f.route_rev.(j)) ~now
    done;
    sched_link t ~link:link_id ~time:!notify ~fn:f.loss_h ~arg:idx
  end

let on_hop_event t f idx =
  let now = Sim.now t.sim in
  let k = ri f idx ri_hop in
  (match t.audit with
  | Some a -> Audit.on_hop_exit a ~link:f.route_fwd.(k) ~now
  | None -> ());
  set_ri f idx ri_hop (k + 1);
  admit_hop t f idx

(* Inlined: a paced sender reaches it once per packet, and a call
   would box [time]. *)
let[@inline] schedule_poll t f ~time =
  if not f.poll_pending then begin
    f.poll_pending <- true;
    Sim.at_fn t.sim ~time ~fn:f.poll_h ~arg:0
  end

let rec poll t f = send_burst t f burst_cap

and send_burst t f budget =
  if budget = 0 then schedule_poll t f ~time:(Sim.now t.sim)
  else if sending_allowed t f then begin
    let now = Sim.now t.sim in
    let meta = t.meta in
    meta.(0) <- now;
    Sender.next_send_m f.sender ~meta;
    let time = meta.(3) in
    if time <= now then transmit t f budget
    else if Float.is_finite time then schedule_poll t f ~time
    else f.blocked <- true
  end

and transmit t f budget =
  let now = Sim.now t.sim in
  let size = if f.remaining >= 0 then min f.remaining Units.mtu else Units.mtu in
  let seq = f.next_seq in
  f.next_seq <- seq + 1;
  if f.remaining >= 0 then f.remaining <- f.remaining - size;
  Flow_stats.record_sent f.stats ~now ~size;
  t.meta.(0) <- now;
  Sender.on_sent_m f.sender ~meta:t.meta ~seq ~size;
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~kind:Trace.Send ~flow:f.id ~seq
      ~a:(float_of_int size)
      ~b:(float_of_int f.route_fwd.(0))
      ~note:"";
  (match t.audit with
  | Some a -> Audit.on_sent a ~flow:f.id ~seq ~size ~now
  | None -> ());
  let idx = acquire_slot f in
  set_ri f idx ri_seq seq;
  set_ri f idx ri_size size;
  set_ri f idx ri_hop 0;
  set_rf f idx rf_send now;
  admit_hop t f idx;
  (match t.audit with
  | Some a ->
      Audit.observe_backlog a
        ~backlog:(Link.backlog_bytes t.links.(f.route_fwd.(0)) ~now)
        ~now
  | None -> ());
  send_burst t f (budget - 1)

(* Re-arm the send loop after any ACK/loss: window senders unblock, and
   finite flows whose retransmission budget was just replenished resume.
   [schedule_poll] dedups, so this is a no-op when a poll is pending. *)
and kick t f =
  f.blocked <- false;
  if sending_allowed t f then begin
    (* When no other event is due at this instant, a zero-delay poll
       event would fire next with nothing in between — run the poll
       body inline instead (the pending poll at time [now] would carry
       a larger sequence number than anything queued, so firing it here
       preserves the exact event order while skipping a kernel
       round-trip per ACK). *)
    if (not f.poll_pending) && not (Sim.next_is_now t.sim) then
      poll t f
    else schedule_poll t f ~time:(Sim.now t.sim)
  end

(* [handle_ack]/[handle_dup_ack]/[handle_loss] read the float payload
   (send_time, rtt) from [t.meta], pre-filled by the event adapters
   below straight from the flow's ring arrays — unboxed stores feeding
   the sender's unboxed call protocol. *)
and handle_ack t f ~seq ~size =
  let now = Sim.now t.sim in
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~kind:Trace.Ack ~flow:f.id ~seq ~a:t.meta.(2)
      ~b:(float_of_int size) ~note:"";
  (match t.audit with
  | Some a ->
      (* The packet left its last forward hop before its ACK fired. *)
      Audit.on_hop_exit a
        ~link:f.route_fwd.(Array.length f.route_fwd - 1)
        ~now;
      Audit.on_ack a ~flow:f.id ~seq ~size ~now;
      Audit.observe_backlog a
        ~backlog:(Link.backlog_bytes t.links.(f.route_fwd.(0)) ~now)
        ~now
  | None -> ());
  Flow_stats.record_ack f.stats ~now ~size ~rtt:t.meta.(2);
  Sender.on_ack_m f.sender ~meta:t.meta ~seq ~size;
  f.acked_bytes <- f.acked_bytes + size;
  (match f.on_ack_bytes with Some cb -> cb ~now size | None -> ());
  (if f.total_bytes >= 0 && (not f.complete) && f.acked_bytes >= f.total_bytes
   then begin
     f.complete <- true;
     f.completed_at <- Some now;
     match f.on_complete with Some cb -> cb ~now | None -> ()
   end);
  kick t f

and handle_dup_ack t f ~seq ~size =
  let now = Sim.now t.sim in
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~kind:Trace.Dup_ack ~flow:f.id ~seq
      ~a:t.meta.(2) ~b:(float_of_int size) ~note:"";
  (match t.audit with
  | Some a -> Audit.on_dup_ack a ~flow:f.id ~seq ~now
  | None -> ());
  (* The duplicate reaches the congestion controller (dup-ACK stress)
     and the dup counter, but is invisible to the application: no
     goodput, no completion progress. *)
  Flow_stats.record_dup_ack f.stats;
  Sender.on_ack_m f.sender ~meta:t.meta ~seq ~size;
  kick t f

and handle_loss t f ~seq ~size ~hop =
  let now = Sim.now t.sim in
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~kind:Trace.Loss ~flow:f.id ~seq
      ~a:(float_of_int size)
      ~b:(float_of_int hop) ~note:"";
  (match t.audit with
  | Some a ->
      Audit.on_loss a ~flow:f.id ~seq ~size ~now;
      Audit.observe_backlog a
        ~backlog:(Link.backlog_bytes t.links.(f.route_fwd.(0)) ~now)
        ~now
  | None -> ());
  Flow_stats.record_loss ~hop f.stats ~size;
  Sender.on_loss_m f.sender ~meta:t.meta ~seq ~size;
  (* Reliable delivery for finite flows: the lost bytes re-enter the
     send budget (retransmission). *)
  if f.total_bytes >= 0 then f.remaining <- f.remaining + size;
  kick t f

let on_ack_event t f idx =
  let m = t.meta in
  m.(0) <- Sim.now t.sim;
  m.(1) <- rf f idx rf_send;
  m.(2) <- rf f idx rf_rtt;
  let seq = ri f idx ri_seq and size = ri f idx ri_size in
  release_slot f idx;
  handle_ack t f ~seq ~size

let on_loss_event t f idx =
  let m = t.meta in
  m.(0) <- Sim.now t.sim;
  m.(1) <- rf f idx rf_send;
  let seq = ri f idx ri_seq
  and size = ri f idx ri_size
  and hop = f.route_fwd.(ri f idx ri_hop) in
  release_slot f idx;
  handle_loss t f ~seq ~size ~hop

let on_dup_ack_event t f idx =
  let m = t.meta in
  m.(0) <- Sim.now t.sim;
  m.(1) <- rf f idx rf_send;
  m.(2) <- rf f idx rf_rtt;
  let seq = ri f idx ri_seq and size = ri f idx ri_size in
  release_slot f idx;
  handle_dup_ack t f ~seq ~size

let add_flow ?(start = 0.0) ?stop ?size_bytes ?on_complete ?on_ack_bytes ?route
    t ~label ~factory =
  let route_fwd, route_rev =
    match (route, t.default_route) with
    | Some r, _ | None, Some r ->
        let fwd = Topology.route_fwd r and rev = Topology.route_rev r in
        let n = Array.length t.links in
        Array.iter
          (fun id ->
            if id < 0 || id >= n then
              invalid_arg
                (Printf.sprintf
                   "Runner.add_flow: route link id %d outside this topology \
                    [0, %d)"
                   id n))
          (Array.append fwd rev);
        (fwd, rev)
    | None, None ->
        invalid_arg
          "Runner.add_flow: a topology built by Topology.make needs an \
           explicit ~route"
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let env =
    {
      Sender.rng = Rng.split t.root_rng;
      mtu = Units.mtu;
      trace = t.trace;
      hops = Array.length route_fwd;
      flow = id;
    }
  in
  let bytes = match size_bytes with Some b -> b | None -> -1 in
  let f =
    {
      label;
      id;
      sender = factory env;
      stats = Flow_stats.create ();
      route_fwd;
      route_rev;
      next_seq = 0;
      remaining = bytes;
      total_bytes = bytes;
      acked_bytes = 0;
      start;
      stop;
      blocked = false;
      paused = false;
      poll_pending = false;
      complete = false;
      completed_at = None;
      on_complete;
      on_ack_bytes;
      ring_i = [||];
      ring_f = [||];
      ring_free = [||];
      ring_free_len = 0;
      ack_h = Sim.no_handler;
      loss_h = Sim.no_handler;
      dup_h = Sim.no_handler;
      poll_h = Sim.no_handler;
      hop_h = Sim.no_handler;
    }
  in
  let reg = Sim.register t.sim in
  f.ack_h <- reg (fun idx -> on_ack_event t f idx);
  f.loss_h <- reg (fun idx -> on_loss_event t f idx);
  f.dup_h <- reg (fun idx -> on_dup_ack_event t f idx);
  f.hop_h <- reg (fun idx -> on_hop_event t f idx);
  f.poll_h <-
    reg (fun _ ->
        f.poll_pending <- false;
        poll t f);
  (match t.audit with
  | Some a ->
      let aid = Audit.register_flow a ~label in
      assert (aid = f.id)
  | None -> ());
  t.flows <- f :: t.flows;
  schedule_poll t f ~time:start;
  f

let snapshot_metrics t reg =
  let now = Sim.now t.sim in
  Metrics.set (Metrics.gauge reg "sim.now-s") now;
  Metrics.incr
    ~by:(Sim.events_scheduled t.sim)
    (Metrics.counter reg "sim.events-scheduled");
  Metrics.incr ~by:(Sim.events_fired t.sim) (Metrics.counter reg "sim.events-fired");
  Metrics.incr ~by:(Sim.max_queued t.sim) (Metrics.counter reg "sim.max-queued");
  Metrics.set (Metrics.gauge reg "sim.pending") (float_of_int (Sim.pending t.sim));
  Metrics.incr ~by:(Sim.wheel_ticks t.sim) (Metrics.counter reg "sim.wheel-ticks");
  Metrics.incr
    ~by:(Sim.wheel_cascades t.sim)
    (Metrics.counter reg "sim.wheel-cascades");
  Metrics.set
    (Metrics.gauge reg "sim.wheel-max-occupancy")
    (float_of_int (Sim.wheel_max_occupancy t.sim));
  if Trace.enabled t.trace then begin
    Metrics.incr ~by:(Trace.total_emitted t.trace)
      (Metrics.counter reg "trace.emitted");
    Metrics.incr ~by:(Trace.dropped t.trace) (Metrics.counter reg "trace.dropped")
  end;
  Array.iteri
    (fun i l ->
      Metrics.set
        (Metrics.gauge reg (Printf.sprintf "link.%d.backlog-bytes" i))
        (Link.backlog_bytes l ~now))
    t.links;
  if t.fluid_present then begin
    sync_fluid t;
    Array.iteri
      (fun i l ->
        match Link.fluid l with
        | None -> ()
        | Some agg ->
            let bytes_in, bytes_out, shed, bq = Aggregate.totals agg in
            let p n = Printf.sprintf "link.%d.fluid-%s" i n in
            Metrics.set (Metrics.gauge reg (p "backlog-bytes")) bq;
            Metrics.set (Metrics.gauge reg (p "bytes-in")) bytes_in;
            Metrics.set (Metrics.gauge reg (p "bytes-out")) bytes_out;
            Metrics.set (Metrics.gauge reg (p "bytes-shed")) shed;
            Metrics.set
              (Metrics.gauge reg (p "flows"))
              (float_of_int (Aggregate.flows agg)))
      t.links
  end;
  List.iter
    (fun f ->
      let s = f.stats in
      let p n = "flow." ^ f.label ^ "." ^ n in
      Metrics.incr ~by:(Flow_stats.packets_sent s) (Metrics.counter reg (p "sent"));
      Metrics.incr ~by:(Flow_stats.packets_acked s)
        (Metrics.counter reg (p "acked"));
      Metrics.incr ~by:(Flow_stats.packets_lost s) (Metrics.counter reg (p "lost"));
      Metrics.incr
        ~by:(Flow_stats.packets_dup_acked s)
        (Metrics.counter reg (p "dup-acks"));
      Metrics.set (Metrics.gauge reg (p "acked-bytes")) (Flow_stats.bytes_acked s);
      Metrics.set
        (Metrics.gauge reg (p "throughput-mbps"))
        (Flow_stats.throughput_mbps s ~t0:0.0 ~t1:(Float.max now 1e-9));
      let h = Metrics.histogram reg (p "rtt-ms") ~lo:0.0 ~hi:1000.0 ~bins:200 in
      Array.iter
        (fun rtt -> Metrics.observe h (rtt *. 1e3))
        (Flow_stats.rtt_samples s ~t0:0.0 ~t1:infinity))
    (List.rev t.flows)

let pause _t f = f.paused <- true

let resume t f =
  if f.paused then begin
    f.paused <- false;
    f.blocked <- false;
    schedule_poll t f ~time:(Float.max f.start (Sim.now t.sim))
  end

let run t ~until =
  Sim.run ~until t.sim;
  (* Integrate fluid tails to the stop time so end-of-run totals (and
     the auditor's conservation check) cover the full horizon even when
     no packet touched a link late in the run. No-op without fluid. *)
  sync_fluid t
