(* Compile a validated Spec.t onto the existing Topology/Runner stack
   and execute it: the bridge between the declarative layer and the
   packet-level simulator. Everything here reuses the constructors the
   hand-written bench experiments call — a spec-driven run of a
   scenario is bit-identical to its hand-written twin given the same
   seed (test_scenario pins this with golden digests). *)

module Net = Proteus_net
module Topology = Net.Topology
module Runner = Net.Runner
module D = Proteus_stats.Descriptive

let fail fmt = Printf.ksprintf failwith fmt

let classes_of (fl : Spec.fluid) =
  List.map
    (fun (c : Spec.fluid_class) ->
      Net.Aggregate.cls ~flows:c.c_flows ~responsiveness:c.c_responsiveness
        ~label:c.c_label c.c_envelope)
    fl.f_classes

let topology (t : Spec.t) =
  let base =
    match t.topology with
    | Spec.Dumbbell cfg -> Topology.dumbbell cfg
    | Spec.Chain links -> Topology.chain links
    | Spec.Parking_lot { hops; link; _ } ->
        Topology.chain (List.init hops (fun _ -> link))
  in
  List.fold_left
    (fun topo (fl : Spec.fluid) ->
      Topology.with_fluid ?buffer_share:fl.f_buffer_share topo ~link:fl.f_link
        (classes_of fl))
    base t.fluids

let route_for topo (t : Spec.t) (r : Spec.route) =
  match (t.topology, r) with
  | Spec.Dumbbell _, (Spec.Hop _ | Spec.Rev) ->
      fail "dumbbell flows must take the end-to-end route"
  | _, Spec.E2e -> Some (Topology.chain_route topo)
  | _, Spec.Hop h -> Some (Topology.hop_route topo ~hop:h)
  | _, Spec.Rev ->
      (* Data retraces the reverse links; ACKs ride the forward hops. *)
      let n = Topology.chain_hops topo in
      Some
        (Topology.route topo
           ~fwd:(List.init n (fun i -> (2 * n) - 1 - i))
           ~rev:(List.init n (fun i -> i)))

let instantiate ?trace ?kernel ~seed (t : Spec.t) =
  let topo = topology t in
  let r = Runner.create_topo ?trace ?kernel ~seed topo in
  let declared =
    List.map
      (fun (f : Spec.flow) ->
        let factory =
          let built =
            match f.dp with
            | None -> Protocols.factory f.cc
            | Some d ->
                Protocols.datapath_factory ?interval:d.dp_interval
                  ~consts:d.dp_consts f.cc
          in
          match built with
          | Ok f -> f
          | Error e -> fail "flow %s: %s" f.label e
        in
        let size_bytes =
          Option.map (fun mb -> int_of_float (mb *. 1e6)) f.size_mb
        in
        ( f.label,
          Runner.add_flow r ~start:f.start ?stop:f.stop ?size_bytes
            ?route:(route_for topo t f.route) ~label:f.label ~factory ))
      t.flows
  in
  let crosses =
    match t.topology with
    | Spec.Parking_lot { hops; cross; _ } ->
        List.init hops (fun hop ->
            let label = Printf.sprintf "cross%d" hop in
            let factory =
              match Protocols.factory cross with
              | Ok f -> f
              | Error e -> fail "cross flow: %s" e
            in
            ( label,
              Runner.add_flow r
                ~route:(Topology.hop_route topo ~hop)
                ~label ~factory ))
    | _ -> []
  in
  (r, declared @ crosses)

(* Mean of the bins whose start lies in [w_from, w_to). *)
let window_mean series (w : Spec.window) =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun (t, v) ->
      if t >= w.w_from -. 1e-9 && t < w.w_to -. 1e-9 then begin
        sum := !sum +. v;
        incr n
      end)
    series;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

(* Recovery is reached at this share of the pre-fault goodput. *)
let recovery_share = 0.8

let metric_values ?(baselines = []) (t : Spec.t) flows =
  let t0 = t.measure_from and t1 = t.duration in
  let stats label =
    match List.assoc_opt label flows with
    | Some f -> Runner.stats f
    | None -> fail "metric references unknown flow %S" label
  in
  let tput label = Net.Flow_stats.throughput_mbps (stats label) ~t0 ~t1 in
  let all_tputs () =
    Array.of_list (List.map (fun (l, _) -> tput l) flows)
  in
  let series =
    List.map
      (fun (l, f) ->
        ( l,
          lazy
            (Net.Flow_stats.throughput_series (Runner.stats f)
               ~bin:Spec.series_bin ~until:t.duration) ))
      flows
  in
  let series_of l = Lazy.force (List.assoc l series) in
  let combined =
    lazy
      (match series with
      | [] -> [||]
      | (_, first) :: _ ->
          Array.mapi
            (fun i (bin_t, _) ->
              ( bin_t,
                List.fold_left
                  (fun acc (_, s) -> acc +. snd (Lazy.force s).(i))
                  0.0 series ))
            (Lazy.force first))
  in
  let span = function
    | None -> (t0, t1)
    | Some (w : Spec.window) -> (w.w_from, w.w_to)
  in
  let recovery (pre : Spec.window) after =
    let combined = Lazy.force combined in
    let threshold = recovery_share *. window_mean combined pre in
    let reached = ref None in
    Array.iter
      (fun (bin_t, v) ->
        if !reached = None && bin_t >= after && v >= threshold then
          reached := Some (Float.max 0.0 (bin_t -. after)))
      combined;
    (* Never recovered: censored at the end of the run, never 0 s. *)
    match !reached with
    | Some s -> (s, 1.0)
    | None -> (t.duration -. after, 0.0)
  in
  (* What the run without [l] read for [key] ({!baselines}). *)
  let base l key =
    match Option.bind (List.assoc_opt l baselines) (List.assoc_opt key) with
    | Some b -> b
    | None -> fail "%s needs the run without %s (see run_metrics)" key l
  in
  let harm l =
    let ratios =
      List.filter_map
        (fun (other, _) ->
          if other = l then None
          else
            let b = base l (Spec.metric_name (Spec.Tput (other, None))) in
            Some (if b > 0.0 then tput other /. b else 1.0))
        flows
    in
    Float.max 0.0 (1.0 -. D.mean (Array.of_list ratios))
  in
  let sum f =
    List.fold_left (fun acc (_, fl) -> acc + f (Runner.stats fl)) 0 flows
  in
  let rec values m =
    match m with
    | Spec.Tput (l, None) -> [ tput l ]
    | Spec.Tput (l, Some w) -> [ window_mean (series_of l) w ]
    | Spec.Mean_rtt (l, w) ->
        let t0, t1 = span w in
        let rtts = Net.Flow_stats.rtt_samples (stats l) ~t0 ~t1 in
        [ (if Array.length rtts = 0 then 0.0 else 1000.0 *. D.mean rtts) ]
    | Spec.P95_rtt (l, w) ->
        let t0, t1 = span w in
        [
          Option.fold ~none:0.0 ~some:(fun r -> 1000.0 *. r)
            (Net.Flow_stats.rtt_percentile (stats l) ~t0 ~t1 ~p:95.0);
        ]
    | Spec.Loss l -> [ Net.Flow_stats.loss_fraction (stats l) ]
    | Spec.Total_tput None -> [ Array.fold_left ( +. ) 0.0 (all_tputs ()) ]
    | Spec.Total_tput (Some w) -> [ window_mean (Lazy.force combined) w ]
    | Spec.Fairness None -> [ D.jain_index (all_tputs ()) ]
    | Spec.Fairness (Some w) ->
        [
          D.jain_index
            (Array.of_list
               (List.map (fun (l, _) -> window_mean (series_of l) w) flows));
        ]
    | Spec.Total_loss ->
        let sent = sum Net.Flow_stats.packets_sent in
        [
          (if sent = 0 then 0.0
           else float_of_int (sum Net.Flow_stats.packets_lost)
                /. float_of_int sent);
        ]
    | Spec.Recovery { pre; after } ->
        let s, ok = recovery pre after in
        [ s; ok ]
    | Spec.Harm l -> [ harm l ]
    | Spec.Without (l, inner) ->
        let b = base l (Spec.metric_name inner) in
        List.map (fun v -> if b > 0.0 then v /. b else 0.0) (values inner)
  in
  List.concat_map
    (fun m ->
      let vs = values m in
      (* Degenerate windows (e.g. Jain over all-zero throughputs) must
         not leak non-finite values into journals or the gate. *)
      List.map2
        (fun k v -> (k, if Float.is_finite v then v else 0.0))
        (Spec.metric_keys m) vs)
    t.metrics

(* A spec whose every flow stops (and has no never-stopping parking-lot
   crosses) drains before its end, so the run must end quiesced. *)
let quiesces (t : Spec.t) =
  List.for_all (fun (f : Spec.flow) -> f.stop <> None) t.flows
  && match t.topology with Spec.Parking_lot _ -> false | _ -> true

let run_spec ?trace ?kernel ~audit ~arm ~seed (t : Spec.t) =
  let r, flows = instantiate ?trace ?kernel ~seed t in
  (match arm with Some f -> f r | None -> ());
  let aud = if audit then Some (Runner.attach_audit r) else None in
  Runner.run r ~until:t.duration;
  if quiesces t then Option.iter Net.Audit.assert_quiesced aud;
  flows

(* One run per label that harm or without remove: the same spec and
   seed without that flow, evaluating just what those metrics read of
   it (the other flows' throughputs for harm, the inner metric for
   without). *)
let baselines ?kernel ?(audit = true) ?arm ~seed (t : Spec.t) =
  let reads l = function
    | Spec.Harm l' when l' = l ->
        List.filter_map
          (fun o -> if o = l then None else Some (Spec.Tput (o, None)))
          (Spec.flow_labels t)
    | Spec.Without (l', m) when l' = l -> [ m ]
    | _ -> []
  in
  List.filter_map
    (function Spec.Harm l | Spec.Without (l, _) -> Some l | _ -> None)
    t.metrics
  |> List.sort_uniq String.compare
  |> List.map (fun l ->
         let without =
           {
             t with
             flows = List.filter (fun (f : Spec.flow) -> f.label <> l) t.flows;
             metrics =
               List.sort_uniq compare (List.concat_map (reads l) t.metrics);
           }
         in
         (l, metric_values without (run_spec ?kernel ~audit ~arm ~seed without)))

let run_metrics ?trace ?kernel ?(audit = true) ?arm ~seed (t : Spec.t) =
  let flows = run_spec ?trace ?kernel ~audit ~arm ~seed t in
  metric_values
    ~baselines:(baselines ?kernel ~audit ?arm ~seed t)
    t flows
