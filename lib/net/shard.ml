module Sim = Proteus_eventsim.Sim
module Rng = Proteus_stats.Rng
module Trace = Proteus_obs.Trace
module Pool = Proteus_parallel.Pool

(* Sharded intra-trial execution: partition a topology into
   bottleneck-independent components (flows in different components
   share no link, so their packets can never contend), run each
   component group on its own [Runner] — optionally on its own domain —
   and merge under a deterministic (time, seq) event-time barrier.

   Byte-identity argument. Every shard instantiates the FULL topology
   with the trial seed, so the link RNG splits (drawn in id order)
   are identical everywhere; flow specs are then visited in global
   order, each shard adding its own flows and burning exactly the one
   root-RNG split a foreign [add_flow] would have drawn. Every flow
   and link therefore owns the same random stream regardless of the
   shard count. Event seqs are partitioned affinely
   ([Sim.set_seq_partition]: shard s of n draws s, s+n, s+2n, ...), so
   seqs are globally unique and within-shard relative order matches the
   single-shard schedule; since cross-shard events touch disjoint
   state, the merged (time, seq) order is observationally equal to the
   single-shard run and every per-flow / per-link result is
   byte-identical for any shard count. The epoch barrier (all shards
   advance to the same horizon before any proceeds) adds a
   happens-before edge per window for cross-domain publication; it does
   not influence results. *)

type spec = {
  sp_label : string;
  sp_factory : Sender.factory;
  sp_start : float;
  sp_stop : float option;
  sp_size : int option;
  sp_route : Topology.route option;
}

let spec ?(start = 0.0) ?stop ?size_bytes ?route ~label factory =
  {
    sp_label = label;
    sp_factory = factory;
    sp_start = start;
    sp_stop = stop;
    sp_size = size_bytes;
    sp_route = route;
  }

(* Link ids touched by a spec (the union of its forward and reverse
   paths). *)
let spec_links topo s =
  match (s.sp_route, Topology.default_route topo) with
  | Some r, _ | None, Some r ->
      Array.append (Topology.route_fwd r) (Topology.route_rev r)
  | None, None ->
      invalid_arg
        (Printf.sprintf
           "Shard: flow %s needs an explicit route on a topology built by \
            Topology.make"
           s.sp_label)

(* Union-find over link ids; two links share a component iff some flow
   crosses both (directly or transitively). *)
let components topo specs =
  let n = Topology.num_links topo in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    (* Root at the smaller id so representatives are stable. *)
    if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb
  in
  List.iter
    (fun s ->
      let links = spec_links topo s in
      let m = Array.length links in
      for i = 1 to m - 1 do
        union links.(0) links.(i)
      done)
    specs;
  (* Dense component indices, ordered by smallest member link id. *)
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = find i in
    if comp.(r) < 0 then begin
      comp.(r) <- !next;
      incr next
    end;
    comp.(i) <- comp.(r)
  done;
  comp

type shard_state = {
  sh_runner : Runner.t;
  sh_audit : Audit.t option;
}

type t = {
  shards : shard_state array;
  flow_shard : int array; (* spec index -> owning shard *)
  link_shard : int array; (* link id -> owning shard *)
  flows : Runner.flow array; (* spec index -> handle in its owning shard *)
  labels : string array;
  epoch : float;
  mutable now : float;
}

let create ?(seed = 42) ?(shards = 1) ?(epoch = 0.25) ?(audit = true)
    topo specs =
  if shards < 1 then
    invalid_arg (Printf.sprintf "Shard.create: shards must be >= 1, got %d" shards);
  if not (epoch > 0.0 && Float.is_finite epoch) then
    invalid_arg (Printf.sprintf "Shard.create: epoch must be positive, got %g" epoch);
  let specs_a = Array.of_list specs in
  let nspecs = Array.length specs_a in
  let comp = components topo specs in
  let ncomp = Array.fold_left (fun m c -> max m (c + 1)) 0 comp in
  (* Never more shards than components (an empty shard would only burn
     a domain); round-robin components over the shard set. *)
  let n_shards = max 1 (min shards ncomp) in
  let link_shard = Array.map (fun c -> c mod n_shards) comp in
  let flow_shard =
    Array.map (fun s -> link_shard.((spec_links topo s).(0))) specs_a
  in
  let mk_shard index =
    let r = Runner.create_topo ~seed topo in
    Sim.set_seq_partition (Runner.sim r) ~index ~count:n_shards;
    let a = if audit then Some (Runner.attach_audit r) else None in
    { sh_runner = r; sh_audit = a }
  in
  let shard_states = Array.init n_shards mk_shard in
  let flows_opt = Array.make nspecs None in
  (* Visit specs in global order in EVERY shard: the owner adds the
     flow, everyone else burns the root-RNG split that [add_flow] would
     have drawn, keeping all random streams aligned across shard
     counts. *)
  Array.iteri
    (fun si s ->
      Array.iteri
        (fun shard st ->
          if flow_shard.(si) = shard then
            flows_opt.(si) <-
              Some
                (Runner.add_flow ?stop:s.sp_stop ?size_bytes:s.sp_size
                   ?route:s.sp_route ~start:s.sp_start st.sh_runner
                   ~label:s.sp_label ~factory:s.sp_factory)
          else ignore (Rng.split (Runner.rng st.sh_runner)))
        shard_states)
    specs_a;
  let flows =
    Array.map (function Some f -> f | None -> assert false) flows_opt
  in
  {
    shards = shard_states;
    flow_shard;
    link_shard;
    flows;
    labels = Array.map (fun s -> s.sp_label) specs_a;
    epoch;
    now = 0.0;
  }

let num_shards t = Array.length t.shards
let num_flows t = Array.length t.labels
let shard_of_flow t i = t.flow_shard.(i)
let shard_of_link t i = t.link_shard.(i)
let flow t i = t.flows.(i)
let flow_label t i = t.labels.(i)
let flow_stats t i = Runner.stats t.flows.(i)
let runner_at t s = t.shards.(s).sh_runner

let link_at t i = Runner.link_at (runner_at t t.link_shard.(i)) i

let fluid_totals t i =
  Option.map Aggregate.totals (Link.fluid (link_at t i))

(* Epoch barrier: every shard advances to the same horizon before any
   shard crosses it. [Pool.map] is order-preserving and joins the
   whole batch, giving the happens-before edge that publishes each
   domain's writes before the next window. *)
let run ?pool t ~until =
  if until > t.now then begin
    let step h =
      match pool with
      | Some p when Array.length t.shards > 1 ->
          ignore
            (Pool.map p
               (fun st -> Runner.run st.sh_runner ~until:h)
               (Array.to_list t.shards))
      | _ -> Array.iter (fun st -> Runner.run st.sh_runner ~until:h) t.shards
    in
    let tcur = ref t.now in
    while !tcur < until do
      let h = Float.min (!tcur +. t.epoch) until in
      step h;
      tcur := h
    done;
    t.now <- until
  end

let assert_quiesced t =
  Array.iter
    (fun st ->
      match st.sh_audit with Some a -> Audit.assert_quiesced a | None -> ())
    t.shards

let events_fired t =
  Array.fold_left
    (fun acc st -> acc + Sim.events_fired (Runner.sim st.sh_runner))
    0 t.shards
