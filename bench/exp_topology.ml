(* Multi-hop topology sweep: the scenarios a single dumbbell cannot
   express.

   - "parking-lot": a 3-hop chain with one cross-traffic CUBIC flow per
     hop and the protocol under test running end-to-end across all
     three. Classic multi-bottleneck setup: the e2e flow pays every
     queue while each cross flow pays only its own.
   - "rev-path": the protocol under test probes a one-hop path while a
     CUBIC bulk flow congests the *reverse* link, queueing the probe's
     ACKs behind its data packets.

   Each (scenario x protocol) cell reports the e2e flow's throughput /
   mean RTT / loss and a *scavenger-harm* metric: the mean fractional
   throughput reduction the e2e flow inflicts on the cross traffic,
   relative to a baseline trial without it (0 = invisible, 1 = starved).
   Scavengers should sit near 0; loss-based primaries should not.
   Results go to `BENCH_topology.json`.

   Determinism: as in exp_faults, every task's runner seed is derived
   with [Rng.split_at] from a fixed root so it depends only on the task
   key, making a `--jobs N` sweep bit-identical to the sequential one. *)

module Net = Proteus_net
module Link = Net.Link
module Rng = Proteus_stats.Rng
module D = Proteus_stats.Descriptive

(* ---------- timing ---------- *)

let duration () = Exp_common.pick ~fast:15.0 ~default:30.0 ~full:60.0

(* ---------- scenarios ---------- *)

let parking_hops = 3
let hop_bw = 40.0
let hop_cfg () =
  Link.config ~bandwidth_mbps:hop_bw ~rtt_ms:20.0 ~buffer_bytes:150_000 ()

let rev_bw = 30.0
let rev_cfg () =
  Link.config ~bandwidth_mbps:rev_bw ~rtt_ms:30.0 ~buffer_bytes:150_000 ()

type flow_summary = { tput : float; mean_rtt_ms : float; loss_frac : float }

let summarize st ~t0 ~t1 =
  let rtts = Net.Flow_stats.rtt_samples st ~t0 ~t1 in
  {
    tput = Net.Flow_stats.throughput_mbps st ~t0 ~t1;
    mean_rtt_ms =
      (if Array.length rtts = 0 then 0.0 else 1000.0 *. D.mean rtts);
    loss_frac = Net.Flow_stats.loss_fraction st;
  }

(* One trial: the e2e slot is empty for the harm baseline.
   [cross_tputs] are the competing flows' steady-state rates. *)
type trial_result = { e2e : flow_summary option; cross_tputs : float array }

let run_parking ~seed ~e2e =
  let dur = duration () in
  let t0 = dur /. 3.0 in
  let topo = Net.Topology.chain (List.init parking_hops (fun _ -> hop_cfg ())) in
  let r = Net.Runner.create_topo ~seed topo in
  Exp_common.arm r;
  let _audit = Net.Runner.attach_audit r in
  let e2e_flow =
    Option.map
      (fun (p : Exp_common.proto) ->
        Net.Runner.add_flow r
          ~route:(Net.Topology.chain_route topo)
          ~label:"e2e" ~factory:(p.Exp_common.make ()))
      e2e
  in
  let crosses =
    List.init parking_hops (fun hop ->
        Net.Runner.add_flow r
          ~route:(Net.Topology.hop_route topo ~hop)
          ~label:(Printf.sprintf "cross%d" hop)
          ~factory:(Exp_common.cubic.Exp_common.make ()))
  in
  Net.Runner.run r ~until:dur;
  {
    e2e =
      Option.map
        (fun f -> summarize (Net.Runner.stats f) ~t0 ~t1:dur)
        e2e_flow;
    cross_tputs =
      Array.of_list
        (List.map
           (fun f ->
             Net.Flow_stats.throughput_mbps (Net.Runner.stats f) ~t0 ~t1:dur)
           crosses);
  }

let run_revpath ~seed ~e2e =
  let dur = duration () in
  let t0 = dur /. 3.0 in
  let topo = Net.Topology.chain [ rev_cfg () ] in
  let r = Net.Runner.create_topo ~seed topo in
  Exp_common.arm r;
  let _audit = Net.Runner.attach_audit r in
  let probe =
    Option.map
      (fun (p : Exp_common.proto) ->
        Net.Runner.add_flow r
          ~route:(Net.Topology.chain_route topo)
          ~label:"probe" ~factory:(p.Exp_common.make ()))
      e2e
  in
  (* The congestor's data path is the probe's ACK path (link 1) and
     vice versa, so its queue delays the probe's feedback only. *)
  let congestor =
    Net.Runner.add_flow r
      ~route:(Net.Topology.route topo ~fwd:[ 1 ] ~rev:[ 0 ])
      ~label:"rev-congestor"
      ~factory:(Exp_common.cubic.Exp_common.make ())
  in
  Net.Runner.run r ~until:dur;
  {
    e2e =
      Option.map (fun f -> summarize (Net.Runner.stats f) ~t0 ~t1:dur) probe;
    cross_tputs =
      [|
        Net.Flow_stats.throughput_mbps (Net.Runner.stats congestor) ~t0
          ~t1:dur;
      |];
  }

type scenario = {
  sid : string;
  run_trial : seed:int -> e2e:Exp_common.proto option -> trial_result;
}

let scenarios =
  [
    { sid = "parking-lot"; run_trial = run_parking };
    { sid = "rev-path"; run_trial = run_revpath };
  ]

let protos =
  Exp_common.[ proteus_p; proteus_s; cubic; bbr; copa; ledbat_100 ]

(* ---------- journal codec ---------- *)

(* %h floats round-trip byte-exactly through the journal, which is what
   lets a --resume sweep reproduce BENCH_topology.json byte-for-byte.
   First token is the e2e summary ("-" for baseline trials), the rest
   are the cross flows' rates. *)
let encode_trial (r : trial_result) =
  String.concat " "
    ((match r.e2e with
     | Some s -> Printf.sprintf "%h,%h,%h" s.tput s.mean_rtt_ms s.loss_frac
     | None -> "-")
    :: List.map (Printf.sprintf "%h") (Array.to_list r.cross_tputs))

let decode_trial s =
  match String.split_on_char ' ' s with
  | e2e :: crosses ->
      {
        e2e =
          (if e2e = "-" then None
           else
             match String.split_on_char ',' e2e with
             | [ t; rtt; l ] ->
                 Some
                   {
                     tput = float_of_string t;
                     mean_rtt_ms = float_of_string rtt;
                     loss_frac = float_of_string l;
                   }
             | _ -> failwith "topology: corrupt journal payload");
        cross_tputs = Array.of_list (List.map float_of_string crosses);
      }
  | [] -> failwith "topology: corrupt journal payload"

(* ---------- sweep ---------- *)

type row = {
  scenario : string;
  cc : string;
  mean : flow_summary;
  harm : float;
  (* 95% confidence half-widths over trials (0 with fewer than two). *)
  tput_ci : float;
  rtt_ci : float;
  harm_ci : float;
  trials : int;
}

(* Baseline (no-e2e) tasks live in the reserved protocol slot 63 of the
   key space so adding a protocol never reshuffles anyone's seed. *)
let seed_for root ~si ~pi ~tr =
  let key = (((si * 64) + pi) * 64) + tr in
  1 + Rng.int (Rng.split_at root ~key) 1_000_000

(* Baseline (no-e2e) and protocol trials run through one supervised
   sweep: baselines take run ids "base/<scenario>/tN", protocol runs
   "<scenario>/<cc>/tN". A failed protocol trial drops out of its
   cell's aggregation; a failed baseline additionally voids the harm
   metric for that (scenario, trial) — harm needs the matching
   baseline, so those trials are skipped rather than guessed. *)
let sweep () =
  let root = Rng.create ~seed:20_260_807 in
  let trials = Exp_common.trials () in
  let mk si sc pi p tr =
    (si, sc, pi, p, tr, seed_for root ~si ~pi ~tr)
  in
  let base_tasks =
    List.concat
      (List.mapi
         (fun si sc -> List.init trials (fun tr -> mk si sc 63 None tr))
         scenarios)
  in
  let cc_tasks =
    List.concat
      (List.mapi
         (fun si sc ->
           List.concat
             (List.mapi
                (fun pi p ->
                  List.init trials (fun tr -> mk si sc pi (Some p) tr))
                protos))
         scenarios)
  in
  let tasks = base_tasks @ cc_tasks in
  let cfg =
    Exp_common.sweep_config ~journal:"JOURNAL_topology.jsonl"
      ~params:
        [
          "topology";
          Exp_common.scale_name ();
          string_of_int trials;
          Printf.sprintf "%g" (duration ());
        ]
  in
  let srows =
    Exp_common.sup_map cfg
      ~run_id:(fun (_, sc, _, p, tr, _) ->
        match p with
        | None -> Printf.sprintf "base/%s/t%d" sc.sid tr
        | Some (p : Exp_common.proto) ->
            Printf.sprintf "%s/%s/t%d" sc.sid p.Exp_common.name tr)
      ~seed_of:(fun (_, _, _, _, _, seed) -> seed)
      ~encode:encode_trial ~decode:decode_trial
      (fun (_, sc, _, p, _, seed) -> sc.run_trial ~seed ~e2e:p)
      tasks
  in
  let vals =
    List.map2
      (fun (si, _, pi, _, tr, _)
           (r : trial_result Exp_common.Harness.Sweep.row) ->
        (si, pi, tr, r.Exp_common.Harness.Sweep.r_value))
      tasks srows
  in
  let baseline si tr =
    List.find_map
      (fun (si', pi', tr', v) ->
        if si' = si && pi' = 63 && tr' = tr then v else None)
      vals
  in
  let agg =
    List.concat
      (List.mapi
         (fun si sc ->
           List.mapi
             (fun pi (p : Exp_common.proto) ->
               let mine =
                 List.filter_map
                   (fun (si', pi', tr, v) ->
                     match v with
                     | Some r when si' = si && pi' = pi -> Some (tr, r)
                     | _ -> None)
                   vals
               in
               let harm_of (tr, (r : trial_result)) =
                 match baseline si tr with
                 | None -> None  (* baseline failed: harm undefined *)
                 | Some base ->
                     let ratios =
                       Array.mapi
                         (fun i b ->
                           if b > 0.0 then r.cross_tputs.(i) /. b else 1.0)
                         base.cross_tputs
                     in
                     Some (Float.max 0.0 (1.0 -. D.mean ratios))
               in
               let arr f = Array.of_list (List.map f mine) in
               let e2e_ci f =
                 Exp_common.mean_ci95
                   (arr (fun (_, r) -> f (Option.get r.e2e)))
               in
               let tput_m, tput_ci = e2e_ci (fun s -> s.tput) in
               let rtt_m, rtt_ci = e2e_ci (fun s -> s.mean_rtt_ms) in
               let loss_m, _ = e2e_ci (fun s -> s.loss_frac) in
               let harm_m, harm_ci =
                 Exp_common.mean_ci95
                   (Array.of_list (List.filter_map harm_of mine))
               in
               {
                 scenario = sc.sid;
                 cc = p.Exp_common.name;
                 mean =
                   { tput = tput_m; mean_rtt_ms = rtt_m; loss_frac = loss_m };
                 harm = harm_m;
                 tput_ci;
                 rtt_ci;
                 harm_ci;
                 trials = List.length mine;
               })
             protos)
         scenarios)
  in
  (agg, srows)

(* ---------- output ---------- *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.4f" v else "null"

let emit_json rows failures =
  let oc = open_out "BENCH_topology.json" in
  output_string oc "{\n  \"schema\": \"pcc-proteus-bench-topology/2\",\n";
  Printf.fprintf oc "  \"code_version\": \"%s\",\n"
    (Proteus_obs.Manifest.code_version ());
  Printf.fprintf oc
    "  \"config\": {\"parking_hops\": %d, \"hop_bandwidth_mbps\": %g, \
     \"rev_bandwidth_mbps\": %g, \"duration_s\": %g},\n"
    parking_hops hop_bw rev_bw (duration ());
  Exp_common.emit_failed_runs oc failures;
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": \"%s\", \"cc\": \"%s\", \"tput_mbps\": %s, \
         \"tput_ci95\": %s, \"mean_rtt_ms\": %s, \"rtt_ci95\": %s, \
         \"loss_frac\": %s, \"scavenger_harm\": %s, \"harm_ci95\": %s, \
         \"trials\": %d}%s\n"
        r.scenario r.cc (json_num r.mean.tput) (json_num r.tput_ci)
        (json_num r.mean.mean_rtt_ms)
        (json_num r.rtt_ci)
        (json_num r.mean.loss_frac) (json_num r.harm) (json_num r.harm_ci)
        r.trials
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let run () =
  Exp_common.run_experiment ~seed:20_260_807 ~id:"topology"
    ~title:
      "Multi-hop topologies: parking lot and reverse-path congestion\n\
       (3-hop chain w/ per-hop CUBIC cross traffic; 1-hop reverse-path \
       squeeze)"
  @@ fun () ->
  let rows, srows = sweep () in
  let failures = Exp_common.sweep_failures srows in
  let summary =
    Exp_common.Harness.Sweep.summarize ~retries:!Exp_common.retries srows
  in
  Exp_common.note_failures "topology" summary;
  let current = ref "" in
  List.iter
    (fun r ->
      if r.scenario <> !current then begin
        current := r.scenario;
        Exp_common.subheader r.scenario;
        Printf.printf "%-12s %10s %10s %8s %8s\n" "cc" "tput Mb/s" "RTT ms"
          "loss" "harm"
      end;
      Printf.printf "%-12s %10.2f %10.2f %8.4f %7.1f%%\n" r.cc r.mean.tput
        r.mean.mean_rtt_ms r.mean.loss_frac (100.0 *. r.harm))
    rows;
  emit_json rows failures;
  Printf.printf "\n(wrote BENCH_topology.json)\n";
  if summary.failed > 0 then
    Printf.printf "(%d of %d runs failed; see failed_runs)\n" summary.failed
      (summary.completed + summary.failed);
  Printf.printf
    "\nShape check: on the parking lot the scavengers (proteus-s,\n\
     ledbat) leave the per-hop CUBIC crosses nearly untouched (harm ~0)\n\
     while the loss-based e2e flows take a real bite out of every hop;\n\
     reverse-path congestion inflates every protocol's RTT (ACKs queue\n\
     behind the congestor) without adding forward loss.\n";
  [
    ("scenarios", string_of_int (List.length scenarios));
    ("protocols", string_of_int (List.length protos));
    ("trials", string_of_int (Exp_common.trials ()));
    ("duration_s", Printf.sprintf "%g" (duration ()));
    ("parking_hops", string_of_int parking_hops);
  ]
  @ Exp_common.outcome_params summary

(* ---------- smoke (wired into `dune runtest` via @topology-smoke) ---------- *)

(* A short parking-lot run per protocol with the auditor attached: the
   e2e flow and the per-hop crosses stop at t=4 and the final second
   drains every in-flight packet, so full per-hop conservation can be
   asserted. Also checks per-hop loss attribution sums to each flow's
   total. A reverse-path leg exercises reverse routes under audit, and
   an impaired-reverse-hop leg runs ACK noise, reordering, duplication
   and an RTT cut on every reverse hop of a two-hop chain, shared by the
   end-to-end flow's ACKs and the crosses', with the trace bus on. *)
let smoke () =
  Exp_common.header
    "Topology smoke: 3-hop parking lot + rev-path + impaired reverse hops, \
     auditor on";
  List.iter
    (fun (p : Exp_common.proto) ->
      let topo =
        Net.Topology.chain (List.init parking_hops (fun _ -> hop_cfg ()))
      in
      let r = Net.Runner.create_topo ~seed:11 topo in
      let audit = Net.Runner.attach_audit r in
      let e2e =
        Net.Runner.add_flow r
          ~route:(Net.Topology.chain_route topo)
          ~stop:4.0 ~label:p.Exp_common.name
          ~factory:(p.Exp_common.make ())
      in
      let crosses =
        List.init parking_hops (fun hop ->
            Net.Runner.add_flow r
              ~route:(Net.Topology.hop_route topo ~hop)
              ~stop:4.0
              ~label:(Printf.sprintf "cross%d" hop)
              ~factory:(Exp_common.cubic.Exp_common.make ()))
      in
      Net.Runner.run r ~until:5.0;
      Net.Audit.assert_quiesced audit;
      List.iter
        (fun f ->
          let st = Net.Runner.stats f in
          let by_hop = Array.fold_left ( + ) 0 (Net.Flow_stats.losses_by_hop st) in
          if by_hop <> Net.Flow_stats.packets_lost st then
            failwith
              (Printf.sprintf "%s: per-hop losses %d <> total %d"
                 (Net.Runner.label f) by_hop
                 (Net.Flow_stats.packets_lost st)))
        (e2e :: crosses);
      let st = Net.Runner.stats e2e in
      Printf.printf
        "%-12s ok  (%d hop events audited, %d sent / %d acked / %d lost)\n"
        p.Exp_common.name
        (Net.Audit.hop_events_checked audit)
        (Net.Flow_stats.packets_sent st)
        (Net.Flow_stats.packets_acked st)
        (Net.Flow_stats.packets_lost st))
    protos;
  let topo = Net.Topology.chain [ rev_cfg () ] in
  let r = Net.Runner.create_topo ~seed:11 topo in
  let audit = Net.Runner.attach_audit r in
  let probe =
    Net.Runner.add_flow r
      ~route:(Net.Topology.chain_route topo)
      ~stop:4.0 ~label:"probe"
      ~factory:(Exp_common.proteus_s.Exp_common.make ())
  in
  let congestor =
    Net.Runner.add_flow r
      ~route:(Net.Topology.route topo ~fwd:[ 1 ] ~rev:[ 0 ])
      ~stop:4.0 ~label:"rev-congestor"
      ~factory:(Exp_common.cubic.Exp_common.make ())
  in
  Net.Runner.run r ~until:5.0;
  Net.Audit.assert_quiesced audit;
  Printf.printf "rev-path     ok  (probe %d acked, congestor %d acked)\n"
    (Net.Flow_stats.packets_acked (Net.Runner.stats probe))
    (Net.Flow_stats.packets_acked (Net.Runner.stats congestor));
  let knobs =
    Link.config ~noise:Net.Noise.default_wifi ~reorder_prob:0.02 ~dup_prob:0.02
      ~schedule:[ (2.0, Link.Set_rtt 10.0) ]
      ~bandwidth_mbps:hop_bw ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  let topo = Net.Topology.chain ~rev:[ knobs; knobs ] [ hop_cfg (); hop_cfg () ] in
  let trace = Proteus_obs.Trace.create ~capacity:(1 lsl 18) () in
  let r = Net.Runner.create_topo ~seed:11 ~trace topo in
  let audit = Net.Runner.attach_audit r in
  let e2e =
    Net.Runner.add_flow r ~stop:4.0 ~label:"e2e"
      ~factory:(Exp_common.proteus_s.Exp_common.make ())
  in
  let crosses =
    List.init 2 (fun hop ->
        Net.Runner.add_flow r
          ~route:(Net.Topology.hop_route topo ~hop)
          ~stop:4.0
          ~label:(Printf.sprintf "cross%d" hop)
          ~factory:(Exp_common.cubic.Exp_common.make ()))
  in
  Net.Runner.run r ~until:5.0;
  Net.Audit.assert_quiesced audit;
  if Proteus_obs.Trace.dropped trace > 0 then
    failwith
      (Printf.sprintf "rev-knobs: %d trace events dropped"
         (Proteus_obs.Trace.dropped trace));
  let dups =
    List.fold_left
      (fun acc f ->
        acc + Net.Flow_stats.packets_dup_acked (Net.Runner.stats f))
      0 (e2e :: crosses)
  in
  Printf.printf "rev-knobs    ok  (%d hop events audited, e2e %d acked, %d dup acks)\n"
    (Net.Audit.hop_events_checked audit)
    (Net.Flow_stats.packets_acked (Net.Runner.stats e2e))
    dups;
  Printf.printf "topology-smoke: all %d protocols clean\n" (List.length protos)
