(* Bechamel microbenchmarks of the simulator's hot paths: pooled-kernel
   schedule/fire for near and far-future events, link admission, the
   per-ACK flow log, MI metric extraction, utility evaluation, BBR's,
   Copa's and CUBIC's per-packet calls, and full simulated seconds of
   loaded bottlenecks, and the construction of the 64-flow one. Three
   further rows only count words: the second
   simulated second of the 64-flow bottleneck and of a loss-heavy
   blaster pair, and the sixth of a BBR-S pair, each after a warm-up.
   The sim-second and steady-state rows also count the events the
   kernel fired ([events_per_run]), an exact figure for a
   deterministic run.

   Besides wall-clock (ns/run) this measures the minor-heap allocation
   witness (words/run). Every micro is timed [rounds] times and the
   best (minimum) estimate is reported together with its spread
   ((max - min) / min), so `BENCH_micro.json` deltas are trustworthy on
   a noisy machine. Words are counted with [Gc.minor_words] around
   [word_runs] runs: bechamel's [minor_allocated] reads
   [Gc.quick_stat], whose counter moves only at minor collections on
   OCaml 5, so a micro that allocates less than a minor heap per
   sample read 0. The sim-second micros additionally roll up into a
   `sim_seconds_per_wall_second` headline — the number ROADMAP item 3
   tracks. *)

open Bechamel
module Net = Proteus_net
module Sim = Proteus_eventsim.Sim

let rounds = 9
let word_runs = 50

(* A micro is a name and one run of its body; the bodies keep their
   state (sims, links, auditors) across runs to measure the steady
   state. *)
type micro = { name : string; body : unit -> unit }

(* Steady-state event kernel: schedule 100 events through the pooled
   at_fn fast path and drain them. The sim is reused, so every event
   recycles a free-list cell. *)
let sim_kernel_micro =
  let sim = Sim.create () in
  let sink = ref 0 in
  let bump = Sim.register sim (fun i -> sink := !sink + i) in
  { name = "sim at_fn schedule+fire x100";
    body = (fun () ->
      let base = Sim.now sim in
      for i = 0 to 99 do
        Sim.at_fn sim
          ~time:(base +. (float_of_int (i * 7919 mod 100) *. 1e-6))
          ~fn:bump ~arg:i
      done;
      Sim.run sim) }

(* The same cycle for events 100-199 s ahead, past the wheel's level-1
   reach (about 65 s): they are clamped on insert and refiled as the
   cursor jumps across the empty stretches between them. *)
let sim_far_micro =
  let sim = Sim.create () in
  let sink = ref 0 in
  let bump = Sim.register sim (fun i -> sink := !sink + i) in
  { name = "sim far-future at_fn schedule+fire x100";
    body = (fun () ->
      let base = Sim.now sim +. 100.0 in
      for i = 0 to 99 do
        Sim.at_fn sim
          ~time:(base +. float_of_int (i * 7919 mod 100))
          ~fn:bump ~arg:i
      done;
      Sim.run sim) }

(* A dumbbell's per-packet link work: admission to the forward link,
   then the ACK across the reverse link. The links persist across runs,
   so the clock keeps advancing (1 ms per packet: no queue builds). *)
let link_micro =
  let cfg =
    Net.Link.config ~bandwidth_mbps:100.0 ~rtt_ms:30.0 ~buffer_bytes:375_000 ()
  in
  let rng = Proteus_stats.Rng.create ~seed:1 in
  let fwd = Net.Link.create ~id:0 cfg ~rng in
  let rev = Net.Link.create ~id:1 cfg ~rng in
  let pkt = [| 0.0; 0.0 |] and clock = [| 0.0 |] in
  { name = "link forward+ack x100";
    body = (fun () ->
      for _ = 0 to 99 do
        let now = clock.(0) +. 0.001 in
        clock.(0) <- now;
        if Net.Link.forward fwd ~now ~size:1500 ~out:pkt then begin
          pkt.(1) <- Float.nan;
          Net.Link.ack_transit rev ~now ~ack:pkt
        end
      done) }

(* The auditor's per-packet work as the runner feeds it: send, enter and
   leave one hop, ACK, and a backlog observation after the send and
   after the ACK. A 32-packet window stays in flight, so the in-flight
   set probes and deletes in its steady state (no growth). *)
let audit_micro =
  let window = 32 in
  let a = Net.Audit.create () in
  let flow = Net.Audit.register_flow a ~label:"micro" in
  for seq = 0 to window - 1 do
    Net.Audit.on_sent a ~flow ~seq ~size:1500 ~now:0.0
  done;
  let next = ref window and clock = [| 0.0 |] in
  { name = "audit packet x100";
    body = (fun () ->
      for _ = 0 to 99 do
        let now = clock.(0) +. 0.001 in
        clock.(0) <- now;
        let seq = !next in
        next := seq + 1;
        Net.Audit.on_sent a ~flow ~seq ~size:1500 ~now;
        Net.Audit.observe_backlog a ~backlog:1500.0 ~now;
        Net.Audit.on_hop_enter a ~link:0 ~now;
        Net.Audit.on_hop_exit a ~link:0 ~now;
        Net.Audit.on_ack a ~flow ~seq:(seq - window) ~size:1500 ~now;
        Net.Audit.observe_backlog a ~backlog:0.0 ~now
      done) }

(* One pooled MI, reset per run as the controller recycles them: 50
   samples, then its metrics filled into a reused record. *)
let mi_micro =
  let times = [| 125_000.0; 0.0; 0.05 |] and meta = Array.make 3 0.0 in
  let mi = Proteus.Mi.create ~id:0 ~target_rate:125_000.0 ~start_time:0.0 in
  let m = Proteus.Mi.zero_metrics () in
  { name = "MI metrics (50 samples)";
    body = (fun () ->
      Proteus.Mi.reset mi ~id:0 ~times;
      for i = 0 to 49 do
        Proteus.Mi.record_sent mi ~size:1500;
        meta.(1) <- float_of_int i *. 0.001;
        meta.(2) <- 0.03 +. (0.0001 *. float_of_int (i mod 7));
        Proteus.Mi.record_ack_m mi ~meta ~accepted:true
      done;
      Proteus.Mi.close mi ~times;
      Proteus.Mi.metrics_into mi m) }

let utility_micro =
  let u = Proteus.Utility.proteus_s () in
  let m =
    {
      Proteus.Mi.send_rate_mbps = 10.0;
      target_rate_mbps = 10.0;
      loss_rate = 0.01;
      avg_rtt = 0.05;
      rtt_gradient = 0.001;
      rtt_deviation = 0.0005;
      regression_error = 0.0001;
      duration = 0.05;
    }
  in
  { name = "utility eval x100";
    body = (fun () ->
      for _ = 0 to 99 do
        ignore (Proteus.Utility.eval u m)
      done) }

(* The per-ACK log as a many-flow run fills it: 100 ACKs dealt round
   robin to 64 flows, so consecutive records land in different flows'
   logs. The logs are cleared before they outgrow their first
   allocation, so every run appends in place. *)
let flow_stats_micro =
  let flows = Array.init 64 (fun _ -> Net.Flow_stats.create ()) in
  let next = ref 0 and clock = [| 0.0 |] in
  { name = "flow_stats record_ack x100 (64 flows)";
    body = (fun () ->
      if Net.Flow_stats.packets_acked flows.(0) >= 1000 then
        Array.iter Net.Flow_stats.clear flows;
      for _ = 0 to 99 do
        let now = clock.(0) +. 1e-5 in
        clock.(0) <- now;
        Net.Flow_stats.record_ack flows.(!next land 63) ~now ~size:1500
          ~rtt:0.03;
        incr next
      done) }

(* A packed sender's per-packet calls as the runner makes them: poll,
   send, and the ACK of the packet sent [lag] packets earlier (1 ms
   apart, so RTTs and delivery rates are real). The sender persists
   across runs, so the clock, its filters and its send records are in
   their steady state. *)
let sender_micro ~name factory =
  let lag = 30 in
  let s =
    factory
      (Net.Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:1) ~mtu:1500 ())
  in
  let meta = Array.make 4 0.0 and next = ref 0 in
  { name;
    body = (fun () ->
      for _ = 0 to 99 do
        let i = !next in
        next := i + 1;
        let now = 0.001 *. float_of_int i in
        meta.(0) <- now;
        Net.Sender.next_send_m s ~meta;
        Net.Sender.on_sent_m s ~meta ~seq:i ~size:1500;
        if i >= lag then begin
          meta.(1) <- 0.001 *. float_of_int (i - lag);
          meta.(2) <- now -. meta.(1) +. (0.0001 *. float_of_int (i mod 7));
          Net.Sender.on_ack_m s ~meta ~seq:(i - lag) ~size:1500
        end
      done) }

let bbr_micro = sender_micro ~name:"bbr ack x100" (Proteus_cc.Bbr.factory ())
let copa_micro = sender_micro ~name:"copa ack x100" (Proteus_cc.Copa.factory ())

(* With no loss CUBIC would stay in slow start; an initial ssthresh of
   10 puts every ACK on the cubic-growth path. *)
let cubic_micro =
  sender_micro ~name:"cubic ack x100"
    (Proteus_cc.Cubic.factory ~consts:[ ("ssthresh", 10.0) ] ())

(* Every LEDBAT ACK folds both delay filters and the proportional
   window update. *)
let ledbat_micro =
  sender_micro ~name:"ledbat ack x100" (Proteus_cc.Ledbat.factory ())

(* ---------- sim-second micros (the headline) ----------

   Each run simulates exactly one second of a loaded bottleneck, so
   sim-seconds-per-wall-second is 1e9 / ns_per_run. The 2-flow shape is
   the historical baseline; the 64-flow shape approximates the item-2
   scale-out load (many concurrent senders on a fat link). Names are
   kept stable across PRs so committed BENCH_micro.json rows line up. *)

let two_flow_name = "1 sim-second, 2 flows @50Mbps"
let many_flow_name = "1 sim-second, 64 flows @500Mbps"

let two_flow_runner () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:50.0 ~rtt_ms:30.0 ~buffer_bytes:375_000 ()
  in
  let r = Net.Runner.create cfg in
  ignore
    (Net.Runner.add_flow r ~label:"a" ~factory:(Proteus_cc.Cubic.factory ()));
  ignore
    (Net.Runner.add_flow r ~label:"b" ~factory:(Proteus.Presets.proteus_s ()));
  r

let two_flow_micro =
  { name = two_flow_name;
    body = (fun () -> Net.Runner.run (two_flow_runner ()) ~until:1.0) }

let many_flow_runner () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:500.0 ~rtt_ms:30.0 ~buffer_bytes:1_875_000 ()
  in
  let r = Net.Runner.create cfg in
  for i = 0 to 63 do
    let factory =
      if i land 1 = 0 then Proteus_cc.Cubic.factory ()
      else Proteus.Presets.proteus_s ()
    in
    ignore (Net.Runner.add_flow r ~label:(Printf.sprintf "f%d" i) ~factory)
  done;
  r

let many_flow_micro =
  { name = many_flow_name;
    body = (fun () -> Net.Runner.run (many_flow_runner ()) ~until:1.0) }

(* Construction alone: [Runner.create] and the 64 [add_flow]s of the
   many-flow mix, nothing run. Streams are seeded on their first draw,
   so none is seeded here; each flow's first 16 KB log chunk is
   allocated, straight into the major heap, so it adds no minor
   words. *)
let setup_micro =
  { name = "runner setup, 64 flows @500Mbps";
    body = (fun () -> ignore (many_flow_runner ())) }

let micros =
  [
    sim_kernel_micro; sim_far_micro; link_micro; audit_micro; flow_stats_micro;
    mi_micro; utility_micro; bbr_micro; copa_micro; cubic_micro; ledbat_micro;
    two_flow_micro; many_flow_micro; setup_micro;
  ]

(* Events the kernel fires in one run of a sim-second row. *)
let events_to runner ~until () =
  let r = runner () in
  Net.Runner.run r ~until;
  Sim.events_fired (Net.Runner.sim r)

let event_counts =
  [
    (two_flow_name, events_to two_flow_runner ~until:1.0);
    (many_flow_name, events_to many_flow_runner ~until:1.0);
  ]

(* Rows that only count words and events. The sim-second rows are
   mostly set-up and start-up; these count one later simulated second
   only, after a warm-up, so their gates see the steady state. They are
   deterministic. The blaster pair (two 20 Mbps constant-rate senders
   on one 20 Mbps link) loses about half its packets, so its row
   watches the loss path. The BBR-S pair is counted in its sixth
   second: its first seconds grow the filters, the wheel's slots and
   the per-ACK log (about 3,300 words in sim-second 1-2), which later
   seconds reuse. *)
let steady_many_flow_name = "64 flows @500Mbps, sim-second 1-2 (steady state)"
let steady_blaster_name = "2 blasters @20Mbps, sim-second 1-2 (steady state)"
let steady_bbr_s_name = "2 bbr-s @20Mbps, sim-second 5-6 (steady state)"

let blaster_runner () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:75_000 ()
  in
  let r = Net.Runner.create cfg in
  for i = 0 to 1 do
    ignore
      (Net.Runner.add_flow r ~label:(Printf.sprintf "b%d" i)
         ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:20.0))
  done;
  r

let bbr_s_runner () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:75_000 ()
  in
  let r = Net.Runner.create ~seed:7 cfg in
  for i = 0 to 1 do
    ignore
      (Net.Runner.add_flow r ~label:(Printf.sprintf "s%d" i)
         ~factory:(Proteus_cc.Bbr.scavenger_factory ()))
  done;
  r

(* Minor words and events of simulated seconds [from, until). Both
   bounds are literals at the call sites: a computed bound would be a
   boxed float allocated inside the count. *)
let steady_second ~from ~until runner () =
  let r = runner () in
  Net.Runner.run r ~until:from;
  let sim = Net.Runner.sim r in
  let events = Sim.events_fired sim in
  let before = Gc.minor_words () in
  Net.Runner.run r ~until;
  (Gc.minor_words () -. before, Sim.events_fired sim - events)

let word_only =
  [
    ( steady_many_flow_name,
      steady_second ~from:1.0 ~until:2.0 many_flow_runner );
    (steady_blaster_name, steady_second ~from:1.0 ~until:2.0 blaster_runner);
    (steady_bbr_s_name, steady_second ~from:5.0 ~until:6.0 bbr_s_runner);
  ]

(* bechamel prefixes grouped test names with the group name *)
let group = "pcc-proteus"
let row_name m = group ^ "/" ^ m.name

let tests =
  Test.make_grouped ~name:group
    (List.map (fun m -> Test.make ~name:m.name (Staged.stage m.body)) micros)

(* Minor words per run: one warm-up run, then [word_runs] runs between
   two [Gc.minor_words] reads, which count every word this domain has
   allocated so far. *)
let minor_words m =
  m.body ();
  let before = Gc.minor_words () in
  for _ = 1 to word_runs do
    m.body ()
  done;
  (Gc.minor_words () -. before) /. float_of_int word_runs

let estimate tbl name =
  match Hashtbl.find_opt tbl name with
  | None -> None
  | Some result -> (
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Some est
      | _ -> None)

let json_num = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.3f" v
  | _ -> "null"

(* One measured row: best-of-[rounds] time, its relative spread across
   rounds, and the minor words per run. *)
type row = {
  name : string;
  ns : float option;
  ns_spread : float option;  (* (max - min) / min across rounds *)
  words : float option;
  events : int option;  (* kernel events fired per run *)
}

let headline_pairs rows =
  let sim_secs name =
    let name = group ^ "/" ^ name in
    match List.find_opt (fun r -> r.name = name) rows with
    | Some { ns = Some ns; _ } when ns > 0.0 -> Some (1e9 /. ns)
    | _ -> None
  in
  [
    ("two_flow", sim_secs two_flow_name);
    ("many_flow", sim_secs many_flow_name);
  ]

let emit_json rows =
  let oc = open_out "BENCH_micro.json" in
  output_string oc "{\n  \"schema\": \"pcc-proteus-bench-micro/2\",\n";
  Printf.fprintf oc "  \"code_version\": \"%s\",\n"
    (Proteus_obs.Manifest.code_version ());
  Printf.fprintf oc
    "  \"unit\": {\"time\": \"ns/run\", \"allocs\": \"minor-words/run\", \
     \"spread\": \"(max-min)/min over %d rounds\"},\n"
    rounds;
  output_string oc "  \"headline\": {\"sim_seconds_per_wall_second\": {";
  List.iteri
    (fun i (key, v) ->
      Printf.fprintf oc "%s\"%s\": %s"
        (if i = 0 then "" else ", ")
        key (json_num v))
    (headline_pairs rows);
  output_string oc "}},\n";
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"ns_per_run\": %s, \"ns_spread\": %s, \
         \"minor_words_per_run\": %s, \"events_per_run\": %s}%s\n"
        (Proteus_obs.Export.json_escape r.name)
        (json_num r.ns) (json_num r.ns_spread) (json_num r.words)
        (match r.events with Some n -> string_of_int n | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let run () =
  Exp_common.run_experiment ~id:"micro" ~title:"Microbenchmarks (bechamel)"
  @@ fun () ->
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  (* [rounds] independent timing passes; each yields one OLS estimate
     per test. *)
  let passes =
    List.init rounds (fun _ ->
        let raw = Benchmark.all cfg instances tests in
        let results =
          List.map (fun instance -> Analyze.all ols instance raw) instances
        in
        let merged = Analyze.merge ols instances results in
        Hashtbl.find merged (Measure.label Toolkit.Instance.monotonic_clock))
  in
  let by_name =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.map (fun (m : micro) -> (row_name m, m)) micros)
  in
  let best xs =
    match List.filter_map Fun.id xs with
    | [] -> None
    | vs -> Some (List.fold_left Float.min infinity vs)
  in
  let spread xs =
    match List.filter_map Fun.id xs with
    | [] | [ _ ] -> None
    | vs ->
        let lo = List.fold_left Float.min infinity vs in
        let hi = List.fold_left Float.max neg_infinity vs in
        if lo > 0.0 then Some ((hi -. lo) /. lo) else None
  in
  let rows =
    List.map
      (fun (name, m) ->
        let ns_by_round = List.map (fun clock -> estimate clock name) passes in
        {
          name;
          ns = best ns_by_round;
          ns_spread = spread ns_by_round;
          words = Some (minor_words m);
          events =
            Option.map
              (fun count -> count ())
              (List.assoc_opt m.name event_counts);
        })
      by_name
    @ List.map
        (fun (name, steady) ->
          let words, events = steady () in
          { name = group ^ "/" ^ name; ns = None; ns_spread = None;
            words = Some words; events = Some events })
        word_only
  in
  Printf.printf "%-48s %14s %9s %16s %10s\n" "benchmark" "ns/run (best)"
    "spread" "minor-words/run" "events/run";
  List.iter
    (fun r ->
      let str = function
        | Some v when Float.is_finite v -> Printf.sprintf "%.1f" v
        | _ -> "n/a"
      in
      let pct = function
        | Some v when Float.is_finite v -> Printf.sprintf "%.1f%%" (100.0 *. v)
        | _ -> "n/a"
      in
      Printf.printf "%-48s %14s %9s %16s %10s\n" r.name (str r.ns)
        (pct r.ns_spread) (str r.words)
        (match r.events with Some n -> string_of_int n | None -> "n/a"))
    rows;
  Printf.printf "\nsim_seconds_per_wall_second:\n";
  List.iter
    (fun (key, v) ->
      Printf.printf "  %-16s %s\n" key
        (match v with Some v -> Printf.sprintf "%.1f" v | None -> "n/a"))
    (headline_pairs rows);
  emit_json rows;
  Printf.printf "\n(wrote BENCH_micro.json)\n";
  []
