(* Observability layer: trace bus no-op discipline, ring wraparound,
   metrics registry semantics, exporter round-trips, manifest
   determinism, and the event-kernel counters. *)

module Obs = Proteus_obs
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Export = Obs.Export
module Manifest = Obs.Manifest
module Net = Proteus_net
module Sim = Proteus_eventsim.Sim
module Rng = Proteus_stats.Rng

(* ---------- disabled tracing is a no-op ---------- *)

let test_disabled_noop () =
  let tr = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Trace.emit tr ~time:1.0 ~kind:Trace.Send ~flow:0 ~seq:0 ~a:1.0 ~b:2.0
    ~note:"x";
  Alcotest.(check int) "no events" 0 (Trace.length tr);
  Alcotest.(check int) "no total" 0 (Trace.total_emitted tr);
  Alcotest.(check int) "no drops" 0 (Trace.dropped tr)

(* Tracing must consume zero RNG draws and leave control flow alone:
   the same seeded scenario, run with tracing off and with tracing on,
   produces identical packet-level results and leaves the runner's
   root RNG in the same state (witnessed by the next draws). *)
let run_scenario ~trace () =
  let cfg =
    Net.Link.config
      ~schedule:[ (1.0, Net.Link.Down { duration = 0.5; flush = false }) ]
      ~loss_rate:0.01 ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000
      ()
  in
  let r = Net.Runner.create ~seed:7 ~trace cfg in
  let f =
    Net.Runner.add_flow r ~label:"f" ~factory:(Proteus.Presets.proteus_s ())
  in
  Net.Runner.run r ~until:4.0;
  let st = Net.Runner.stats f in
  let draws = List.init 8 (fun _ -> Rng.int (Net.Runner.rng r) 1_000_000) in
  ( Net.Flow_stats.packets_sent st,
    Net.Flow_stats.packets_acked st,
    Net.Flow_stats.packets_lost st,
    Net.Flow_stats.bytes_acked st,
    draws )

let test_seeded_parity_on_off () =
  let off = run_scenario ~trace:Trace.disabled () in
  let bus = Trace.create ~capacity:(1 lsl 18) () in
  let on = run_scenario ~trace:bus () in
  let s0, a0, l0, b0, d0 = off and s1, a1, l1, b1, d1 = on in
  Alcotest.(check int) "sent" s0 s1;
  Alcotest.(check int) "acked" a0 a1;
  Alcotest.(check int) "lost" l0 l1;
  Alcotest.(check (float 0.0)) "bytes" b0 b1;
  Alcotest.(check (list int)) "post-run rng draws" d0 d1;
  Alcotest.(check bool) "traced something" true (Trace.total_emitted bus > 0);
  Alcotest.(check int) "no trace drops" 0 (Trace.dropped bus)

(* ---------- ring wraparound ---------- *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:8 () in
  for i = 0 to 19 do
    Trace.emit tr ~time:(float_of_int i) ~kind:Trace.Ack ~flow:1 ~seq:i
      ~a:(float_of_int (i * 2))
      ~b:0.0 ~note:""
  done;
  Alcotest.(check int) "length capped" 8 (Trace.length tr);
  Alcotest.(check int) "total" 20 (Trace.total_emitted tr);
  Alcotest.(check int) "dropped" 12 (Trace.dropped tr);
  (* Oldest surviving event is #12; newest is #19, in order. *)
  let seqs = List.map (fun (e : Trace.event) -> e.seq) (Trace.to_list tr) in
  Alcotest.(check (list int)) "oldest-first" [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    seqs;
  let e0 = Trace.get tr 0 in
  Alcotest.(check (float 0.0)) "payload follows the ring" 24.0 e0.a;
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr);
  Alcotest.(check int) "counters reset" 0 (Trace.total_emitted tr)

(* ---------- metrics registry ---------- *)

let test_registry_semantics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "packets" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  let c' = Metrics.counter reg "packets" in
  Metrics.incr c';
  Alcotest.(check int) "idempotent registration" 6 (Metrics.counter_value c);
  let g = Metrics.gauge reg "rate" in
  Metrics.set g 1.0;
  Metrics.set g 3.0;
  Alcotest.(check (float 0.0)) "gauge last" 3.0 (Metrics.gauge_last g);
  Alcotest.(check (float 1e-9)) "gauge mean" 2.0
    (Proteus_stats.Welford.mean (Metrics.gauge_stats g));
  (match Metrics.find reg "rate" with
  | Some (Metrics.Gauge _) -> ()
  | _ -> Alcotest.fail "find should see the gauge");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.gauge: \"packets\" is registered as another kind")
    (fun () -> ignore (Metrics.gauge reg "packets"));
  (* Export order is registration order. *)
  let names =
    List.rev
      (Metrics.fold reg ~init:[] ~f:(fun acc e -> Metrics.entry_name e :: acc))
  in
  Alcotest.(check (list string)) "order" [ "packets"; "rate" ] names

(* ---------- histogram export round-trip ---------- *)

let test_histogram_roundtrip () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "rtt-ms" ~lo:0.0 ~hi:100.0 ~bins:10 in
  List.iter (Metrics.observe h) [ 5.0; 15.0; 15.5; 99.0; 250.0; -3.0 ];
  let doc = Export.metrics_to_string reg in
  match Export.parse_histogram ~name:"rtt-ms" doc with
  | None -> Alcotest.fail "histogram not found in export"
  | Some (lo, hi, counts) ->
      Alcotest.(check (float 0.0)) "lo" 0.0 lo;
      Alcotest.(check (float 0.0)) "hi" 100.0 hi;
      let orig = Proteus_stats.Histogram.counts (Metrics.hist_histogram h) in
      Alcotest.(check (array int)) "counts round-trip" orig counts;
      Alcotest.(check int) "clamped tails included" 6
        (Array.fold_left ( + ) 0 counts)

let test_trace_export_shapes () =
  let tr = Trace.create ~capacity:16 () in
  Trace.emit tr ~time:0.25 ~kind:Trace.Impairment ~flow:(-1) ~seq:3 ~a:4.0
    ~b:1.0 ~note:"down";
  Trace.emit tr ~time:0.5 ~kind:Trace.Send ~flow:2 ~seq:7 ~a:1500.0 ~b:0.0
    ~note:"";
  let buf = Buffer.create 256 in
  let jsonl =
    let tmp = Filename.temp_file "trace" ".jsonl" in
    Export.trace_to_file ~path:tmp tr;
    let ic = open_in tmp in
    let rec slurp () =
      match input_line ic with
      | line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          slurp ()
      | exception End_of_file -> ()
    in
    slurp ();
    close_in ic;
    Sys.remove tmp;
    Buffer.contents buf
  in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  Alcotest.(check int) "no trace drops" 0 (Trace.dropped tr);
  let first = List.hd lines in
  let has needle s =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "kind serialized" true
    (has "\"kind\":\"impairment\"" first);
  Alcotest.(check bool) "note serialized" true (has "\"note\":\"down\"" first)

(* ---------- manifests ---------- *)

let test_manifest_deterministic () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "n");
  let render () =
    Manifest.to_string ~run:"unit" ~seed:9 ~scenario:"s"
      ~params:[ ("k", "v") ]
      ~metrics:[ ("tput", 1.5) ]
      ~registry:reg ()
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical re-render" a b;
  let has needle s =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema" true (has "pcc-proteus-manifest/1" a);
  Alcotest.(check bool) "seed" true (has "\"seed\": 9" a);
  Alcotest.(check bool) "params" true (has "\"k\": \"v\"" a);
  Alcotest.(check bool) "registry embedded" true (has "pcc-proteus-metrics/1" a)

(* ---------- event-kernel counters ---------- *)

let test_sim_counters () =
  let sim = Sim.create () in
  Alcotest.(check int) "fresh scheduled" 0 (Sim.events_scheduled sim);
  let fired = ref 0 in
  for i = 1 to 5 do
    Sim.at sim ~time:(float_of_int i) (fun () -> incr fired)
  done;
  Sim.run sim ~until:3.5;
  Alcotest.(check int) "scheduled" 5 (Sim.events_scheduled sim);
  Alcotest.(check int) "fired so far" 3 (Sim.events_fired sim);
  Sim.run sim ~until:10.0;
  Alcotest.(check int) "all fired" 5 (Sim.events_fired sim);
  Alcotest.(check int) "callbacks ran" 5 !fired;
  Alcotest.(check bool) "high-water mark" true (Sim.max_queued sim >= 5)

(* The kernel counters a runner snapshots are live, not zero, equal
   the kernel's own, and are the only [sim.*] keys: [sim.max-queued]
   is the one occupancy figure. *)
let test_runner_kernel_counters () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  let r = Net.Runner.create ~seed:3 cfg in
  ignore
    (Net.Runner.add_flow r ~label:"a" ~factory:(Proteus_cc.Cubic.factory ()));
  Net.Runner.run r ~until:1.0;
  let reg = Metrics.create () in
  Net.Runner.snapshot_metrics r reg;
  let sim = Net.Runner.sim r in
  List.iter
    (fun (name, kernel) ->
      let v = Metrics.counter_value (Metrics.counter reg name) in
      Alcotest.(check bool) (name ^ " > 0") true (v > 0);
      Alcotest.(check int) (name ^ " = kernel counter") (kernel sim) v)
    [
      ("sim.events-scheduled", Sim.events_scheduled);
      ("sim.events-fired", Sim.events_fired);
      ("sim.max-queued", Sim.max_queued);
    ];
  let keys =
    List.rev
      (Metrics.fold reg ~init:[] ~f:(fun acc e ->
           let n = Metrics.entry_name e in
           if String.length n > 4 && String.sub n 0 4 = "sim." then n :: acc
           else acc))
  in
  Alcotest.(check (list string)) "sim keys"
    [ "sim.now-s"; "sim.events-scheduled"; "sim.events-fired";
      "sim.max-queued"; "sim.pending" ]
    keys

(* One metrics name for every topology: a dumbbell exports the backlog
   of its forward link 0 and reverse link 1. *)
let test_dumbbell_metric_keys () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  let r = Net.Runner.create ~seed:3 cfg in
  ignore
    (Net.Runner.add_flow r ~label:"a" ~factory:(Proteus_cc.Cubic.factory ()));
  Net.Runner.run r ~until:0.5;
  let reg = Metrics.create () in
  Net.Runner.snapshot_metrics r reg;
  let links =
    List.rev
      (Metrics.fold reg ~init:[] ~f:(fun acc e ->
           let n = Metrics.entry_name e in
           if String.length n > 5 && String.sub n 0 5 = "link." then n :: acc
           else acc))
  in
  Alcotest.(check (list string)) "link keys"
    [ "link.0.backlog-bytes"; "link.1.backlog-bytes" ]
    links

let suite =
  [
    Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
    Alcotest.test_case "seeded parity on/off" `Quick test_seeded_parity_on_off;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "registry semantics" `Quick test_registry_semantics;
    Alcotest.test_case "histogram round-trip" `Quick test_histogram_roundtrip;
    Alcotest.test_case "trace export shapes" `Quick test_trace_export_shapes;
    Alcotest.test_case "manifest deterministic" `Quick
      test_manifest_deterministic;
    Alcotest.test_case "sim counters" `Quick test_sim_counters;
    Alcotest.test_case "runner kernel counters" `Quick
      test_runner_kernel_counters;
    Alcotest.test_case "dumbbell metric keys" `Quick test_dumbbell_metric_keys;
  ]
