(* CDN-edge scale scenario: the fluid-flow aggregation tier plus
   sharded intra-trial event loops, at a population no packet-level
   simulation could touch.

   The topology is a farm of independent edge links (forward link [e],
   reverse link [E + e]). Each edge carries three fluid background
   classes — web transfers (highly responsive), video sessions
   (moderately responsive) and a bulk swarm (barely responsive) —
   standing for 65,536 flows per edge (1,048,576 total at the default
   16 edges), plus a packet-level foreground of Proteus-P / Proteus-S /
   Proteus-H flows riding the same links. The edges are
   bottleneck-independent, so [Shard] fans them across `--shards`
   domains; results are byte-identical for any shard count.

   Headline: flow-seconds simulated per wall-clock second
   (background + foreground population x simulated horizon / wall).
   Emits BENCH_scale.json plus SCALE_digest.txt — a wall-clock-free
   digest of every foreground flow and every fluid ledger that CI
   byte-compares across shard counts. *)

module Net = Proteus_net
module Link = Net.Link
module Aggregate = Net.Aggregate
module Topology = Net.Topology
module Shard = Net.Shard
module Pool = Proteus_parallel.Pool

(* ---------- scenario shape ---------- *)

let edges () = Exp_common.pick ~fast:4 ~default:16 ~full:32
let duration () = Exp_common.pick ~fast:10.0 ~default:30.0 ~full:60.0

let edge_bw = 100.0
let edge_cfg () =
  Link.config ~bandwidth_mbps:edge_bw ~rtt_ms:20.0 ~buffer_bytes:750_000 ()

(* Per-class flow populations (per edge). *)
let web_flows = 40_960
let video_flows = 8_192
let swarm_flows = 16_384
let fluid_flows_per_edge = web_flows + video_flows + swarm_flows (* 65,536 *)

(* Piecewise-constant offered-rate envelopes (Mbps). The peaks sum well
   past the 95% fluid capacity share, so responsive backoff and
   shedding are both exercised; [af] varies the amplitude per edge so
   the edges are not clones. *)
let scaled af env = List.map (fun (t, r) -> (t, r *. af)) env

let fluid_classes ~edge =
  let af = 0.85 +. (0.1 *. float_of_int (edge mod 4)) in
  [
    Aggregate.cls ~flows:web_flows ~responsiveness:0.9 ~label:"web"
      (scaled af
         [ (0.0, 30.0); (5.0, 55.0); (10.0, 72.0); (15.0, 40.0);
           (20.0, 62.0); (25.0, 35.0) ]);
    Aggregate.cls ~flows:video_flows ~responsiveness:0.5 ~label:"video"
      (scaled af [ (0.0, 24.0); (8.0, 34.0); (16.0, 28.0); (24.0, 38.0) ]);
    Aggregate.cls ~flows:swarm_flows ~responsiveness:0.1 ~label:"swarm"
      (scaled af
         [ (0.0, 18.0); (6.0, 46.0); (12.0, 20.0); (18.0, 50.0); (24.0, 22.0) ]);
  ]

(* Foreground mix per edge: the three Proteus shapes. Proteus-H gets a
   fresh hybrid-threshold cell per flow. *)
let foreground_protos =
  [
    ("proteus-p", fun () -> Proteus.Presets.proteus_p ());
    ("proteus-s", fun () -> Proteus.Presets.proteus_s ());
    ("proteus-h", fun () -> Proteus.Presets.proteus_h ~threshold_mbps:(ref 10.0));
    ("proteus-s", fun () -> Proteus.Presets.proteus_s ());
    ("proteus-p", fun () -> Proteus.Presets.proteus_p ());
    ("proteus-h", fun () -> Proteus.Presets.proteus_h ~threshold_mbps:(ref 10.0));
    ("proteus-s", fun () -> Proteus.Presets.proteus_s ());
    ("proteus-s", fun () -> Proteus.Presets.proteus_s ());
  ]

let foreground_per_edge = List.length foreground_protos

(* Foreground flows stop before the horizon so every in-flight packet
   lands (ACK or loss notification) and the auditor can assert exact
   packet conservation at quiesce; worst-case drain is the packet
   backlog at the 5% service floor (~0.6 s) plus notification lag. The
   fluid tier integrates to the full horizon regardless. *)
let drain_margin = 2.0

let build ~edges:e ~stop =
  let fwd = List.init e (fun _ -> edge_cfg ()) in
  let rev = List.init e (fun _ -> edge_cfg ()) in
  let topo = Topology.make (fwd @ rev) in
  let topo = ref topo in
  for edge = 0 to e - 1 do
    topo := Topology.with_fluid !topo ~link:edge (fluid_classes ~edge)
  done;
  let specs =
    List.concat
      (List.init e (fun edge ->
           let route = Topology.route !topo ~fwd:[ edge ] ~rev:[ e + edge ] in
           List.mapi
             (fun i (name, make) ->
               Shard.spec ~route ~stop
                 ~label:(Printf.sprintf "e%02d-%s%d" edge name i)
                 (make ()))
             foreground_protos))
  in
  (!topo, specs)

(* ---------- digest (wall-clock free; CI byte-compares across
   shard counts) ---------- *)

let digest ~edges:e ~dur sh =
  let buf = Buffer.create 4096 in
  let t0 = dur /. 3.0 in
  for i = 0 to Shard.num_flows sh - 1 do
    let st = Shard.flow_stats sh i in
    Printf.bprintf buf "flow %s sent %d acked %d lost %d bytes %.17g tput %.17g\n"
      (Shard.flow_label sh i)
      (Net.Flow_stats.packets_sent st)
      (Net.Flow_stats.packets_acked st)
      (Net.Flow_stats.packets_lost st)
      (Net.Flow_stats.bytes_acked st)
      (Net.Flow_stats.throughput_mbps st ~t0 ~t1:dur)
  done;
  for edge = 0 to e - 1 do
    match Shard.fluid_totals sh edge with
    | None -> ()
    | Some (bytes_in, bytes_out, shed, backlog) ->
        Printf.bprintf buf
          "fluid %d in %.17g out %.17g shed %.17g backlog %.17g\n" edge
          bytes_in bytes_out shed backlog
  done;
  Buffer.contents buf

(* ---------- main run ---------- *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.4f" v else "null"

(* [body = None] is the degraded shape: config and failed_runs only, a
   valid partial output a dashboard can still ingest. *)
let emit_json ~edges:e ~dur ~shards ~fluid_flows ~foreground ~failures body =
  let oc = open_out "BENCH_scale.json" in
  output_string oc "{\n  \"schema\": \"pcc-proteus-bench-scale/2\",\n";
  Printf.fprintf oc "  \"code_version\": \"%s\",\n"
    (Proteus_obs.Manifest.code_version ());
  Printf.fprintf oc
    "  \"config\": {\"edges\": %d, \"edge_bandwidth_mbps\": %g, \
     \"duration_s\": %g, \"shards\": %d, \"fluid_flows\": %d, \
     \"foreground_flows\": %d},\n"
    e edge_bw dur shards fluid_flows foreground;
  Exp_common.emit_failed_runs oc failures;
  (match body with
  | None -> output_string oc "  \"degraded\": true\n"
  | Some (wall, headline, (bytes_in, bytes_out, shed, backlog), mean_fg_tput)
    ->
      Printf.fprintf oc
        "  \"headline\": {\"flow_seconds_per_wall_second\": {\"scale\": \
         %.1f}},\n"
        headline;
      Printf.fprintf oc "  \"wall_s\": %s,\n" (json_num wall);
      Printf.fprintf oc
        "  \"fluid\": {\"bytes_in\": %.1f, \"bytes_out\": %.1f, \
         \"bytes_shed\": %.1f, \"backlog\": %.1f},\n"
        bytes_in bytes_out shed backlog;
      Printf.fprintf oc "  \"mean_foreground_tput_mbps\": %s\n"
        (json_num mean_fg_tput));
  output_string oc "}\n";
  close_out oc

let run () =
  Exp_common.run_experiment ~seed:20_260_808 ~id:"scale"
    ~title:
      "CDN-edge scale: 1M+ fluid background flows + packet-level Proteus \
       foreground,\nsharded across domains (byte-identical for any shard \
       count)"
  @@ fun () ->
  let e = edges () in
  let dur = duration () in
  let shards = !Exp_common.shards in
  let topo, specs = build ~edges:e ~stop:(dur -. drain_margin) in
  let fluid_flows = Topology.fluid_flows topo in
  let foreground = List.length specs in
  Printf.printf
    "edges %d | fluid flows %d | foreground flows %d | %g sim-s | shards %d\n%!"
    e fluid_flows foreground dur shards;
  (* Fan the shards over the shared `--jobs` pool when present, else a
     dedicated one sized to the shard count. Either way (and
     sequentially) the results are byte-identical. *)
  let local_pool =
    match !Exp_common.pool with
    | Some _ -> None
    | None when shards > 1 -> Some (Pool.create ~jobs:shards)
    | None -> None
  in
  let pool =
    match (!Exp_common.pool, local_pool) with
    | Some p, _ | None, Some p -> Some p
    | None, None -> None
  in
  (* The whole farm is one supervised run (id "scale/farm"): every
     shard's sim is armed with the budgets, so a crash, audit
     violation, stall or budget overrun anywhere in the farm degrades
     the experiment instead of killing the bench. Shard construction
     happens inside the task so a retry starts from pristine state. *)
  let rid = "scale/farm" in
  let task () =
    match List.assoc_opt rid !Exp_common.injections with
    | Some inj -> Exp_common.Harness.Sweep.run_injected rid inj
    | None ->
        let sh = Shard.create ~seed:20_260_808 ~shards ~epoch:0.5 topo specs in
        for i = 0 to Shard.num_shards sh - 1 do
          Exp_common.arm (Shard.runner_at sh i)
        done;
        let t_wall = Unix.gettimeofday () in
        Shard.run ?pool sh ~until:dur;
        let wall = Unix.gettimeofday () -. t_wall in
        Shard.assert_quiesced sh;
        (sh, wall)
  in
  let outcome =
    Exp_common.Harness.Supervisor.run
      ~budget:(Exp_common.supervision_budget ())
      task
  in
  (match local_pool with Some p -> Pool.shutdown p | None -> ());
  match outcome with
  | Exp_common.Harness.Outcome.Completed (sh, wall) ->
      let flow_seconds = float_of_int (fluid_flows + foreground) *. dur in
      let headline = flow_seconds /. Float.max wall 1e-9 in
      (* Aggregate the per-edge fluid ledgers and the foreground goodput. *)
      let sums = Array.make 4 0.0 in
      for edge = 0 to e - 1 do
        match Shard.fluid_totals sh edge with
        | None -> ()
        | Some (a, b, c, d) ->
            sums.(0) <- sums.(0) +. a;
            sums.(1) <- sums.(1) +. b;
            sums.(2) <- sums.(2) +. c;
            sums.(3) <- sums.(3) +. d
      done;
      let t0 = dur /. 3.0 in
      let fg_tputs =
        Array.init foreground (fun i ->
            Net.Flow_stats.throughput_mbps (Shard.flow_stats sh i) ~t0 ~t1:dur)
      in
      let mean_fg_tput = Proteus_stats.Descriptive.mean fg_tputs in
      let shed_frac = if sums.(0) > 0.0 then sums.(2) /. sums.(0) else 0.0 in
      Printf.printf
        "wall %.1f s | %.3g flow-seconds | headline %.3g flow-s/wall-s\n" wall
        flow_seconds headline;
      Printf.printf
        "fluid: %.3g bytes in, shed fraction %.4f | mean foreground tput \
         %.2f Mb/s\n"
        sums.(0) shed_frac mean_fg_tput;
      Printf.printf "audits: clean (packet, hop and fluid conservation)\n";
      emit_json ~edges:e ~dur ~shards:(Shard.num_shards sh) ~fluid_flows
        ~foreground ~failures:[]
        (Some (wall, headline, (sums.(0), sums.(1), sums.(2), sums.(3)),
               mean_fg_tput));
      Printf.printf "(wrote BENCH_scale.json)\n";
      let oc = open_out "SCALE_digest.txt" in
      output_string oc (digest ~edges:e ~dur sh);
      close_out oc;
      Printf.printf "(wrote SCALE_digest.txt)\n";
      [
        ("edges", string_of_int e);
        ("duration_s", Printf.sprintf "%g" dur);
        ("shards", string_of_int (Shard.num_shards sh));
        ("fluid_flows", string_of_int fluid_flows);
        ("foreground_flows", string_of_int foreground);
      ]
      @ Exp_common.outcome_params
          {
            Exp_common.Harness.Sweep.completed = 1;
            failed = 0;
            quarantined = 0;
            resumed = 0;
          }
  | o ->
      let failure =
        {
          Exp_common.Harness.Sweep.f_run = rid;
          f_outcome = Exp_common.Harness.Outcome.label o;
          f_detail = Exp_common.Harness.Outcome.detail o;
          f_attempts = 1;
        }
      in
      let summary =
        {
          Exp_common.Harness.Sweep.completed = 0;
          failed = 1;
          quarantined = 1;
          resumed = 0;
        }
      in
      Exp_common.note_failures "scale" summary;
      Printf.printf "scale: run failed (%s); wrote degraded BENCH_scale.json\n"
        (Exp_common.Harness.Outcome.describe o);
      emit_json ~edges:e ~dur ~shards ~fluid_flows ~foreground
        ~failures:[ failure ] None;
      [
        ("edges", string_of_int e);
        ("duration_s", Printf.sprintf "%g" dur);
        ("shards", string_of_int shards);
        ("fluid_flows", string_of_int fluid_flows);
        ("foreground_flows", string_of_int foreground);
      ]
      @ Exp_common.outcome_params summary

(* ---------- smoke (wired into `dune runtest` via @scale-smoke) ---------- *)

(* A miniature farm run twice — single shard and four shards, both
   sequential — asserting clean audits and byte-identical digests. *)
let smoke () =
  Exp_common.header
    "Scale smoke: sharded CDN-edge farm, shards=1 vs shards=4 digests";
  let e = 4 in
  let dur = 3.0 in
  let topo, specs = build ~edges:e ~stop:1.5 in
  let run_with shards =
    let sh = Shard.create ~seed:20_260_808 ~shards ~epoch:0.5 topo specs in
    Shard.run sh ~until:dur;
    Shard.assert_quiesced sh;
    (Shard.num_shards sh, digest ~edges:e ~dur sh)
  in
  let n1, d1 = run_with 1 in
  let n4, d4 = run_with 4 in
  if d1 <> d4 then
    failwith "scale-smoke: digests diverged between shards=1 and shards=4";
  Printf.printf
    "scale-smoke: shards=%d and shards=%d byte-identical (%d flows, %d fluid \
     flows, audits clean)\n"
    n1 n4 (List.length specs) (Topology.fluid_flows topo)
