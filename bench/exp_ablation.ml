(* Ablation benches for the design choices DESIGN.md calls out:
   1. Each noise-tolerance mechanism of §5, disabled one at a time,
      on the noisy WiFi channel (single-flow throughput) and in a
      yield test (primary ratio vs BBR on the clean link).
   2. Negative-gradient clipping (Proteus-P's modification of the
      Vivace utility): convergence time to 90% utilization. *)

module Net = Proteus_net
module D = Proteus_stats.Descriptive

let variants =
  [
    ("full proteus-s", fun () -> Proteus.Presets.proteus_s ());
    ( "no ack filter",
      fun () -> Proteus.Presets.proteus_s_ablated ~ack_filter:false () );
    ( "no regression tol",
      fun () -> Proteus.Presets.proteus_s_ablated ~regression_tolerance:false () );
    ( "no trending tol",
      fun () -> Proteus.Presets.proteus_s_ablated ~trending_tolerance:false () );
    ( "2-pair (no majority)",
      fun () -> Proteus.Presets.proteus_s_ablated ~majority_rule:false () );
  ]

let noisy_tput ?(noise = Net.Noise.default_wifi) make =
  let n = Exp_common.trials () in
  D.mean
    (Array.of_list
       (List.init n (fun i ->
            Exp_common.single_tput ~seed:(i + 1) ~noise (make ()))))

let yield_ratio make =
  let r =
    Exp_common.pair_run ~seed:2 ~primary:(fun () -> Proteus_cc.Bbr.factory ())
      ~scavenger:make ()
  in
  (r.Exp_common.ratio, r.Exp_common.scav_tput)

let convergence_time factory =
  (* First 1 s bin (after start) sustaining >= 90% of 50 Mbps for 3
     consecutive bins. *)
  let cfg = Exp_common.emulab_cfg () in
  let r = Net.Runner.create ~seed:3 cfg in
  let f = Net.Runner.add_flow r ~label:"conv" ~factory in
  Net.Runner.run r ~until:60.0;
  let series =
    Net.Flow_stats.throughput_series (Net.Runner.stats f) ~bin:1.0 ~until:60.0
  in
  let n = Array.length series in
  let rec find i =
    if i + 2 >= n then None
    else if
      snd series.(i) >= 45.0 && snd series.(i + 1) >= 45.0
      && snd series.(i + 2) >= 45.0
    then Some (fst series.(i))
    else find (i + 1)
  in
  find 0

let run () =
  Exp_common.run_experiment ~id:"ablation"
    ~title:"Ablation — noise tolerance mechanisms (§5)"
  @@ fun () ->
  Printf.printf "%-22s %12s %12s %24s\n" "variant" "WiFi Mbps" "LTE Mbps"
    "yield vs BBR (ratio/scav)";
  List.iter
    (fun (name, make) ->
      let wifi = noisy_tput make in
      let lte = noisy_tput ~noise:Net.Noise.default_lte make in
      let ratio, scav = yield_ratio make in
      Printf.printf "%-22s %10.2f %12.2f %18.1f%% / %4.1f\n" name wifi lte
        (100.0 *. ratio) scav)
    variants;
  Printf.printf
    "\nShape check: disabling regression tolerance costs throughput even\n\
     on stable links; the other mechanisms matter mainly under noise.\n";
  Exp_common.header
    "Ablation — negative-gradient clipping (Proteus-P vs raw Vivace utility)";
  let report name factory =
    match convergence_time factory with
    | Some t -> Printf.printf "%-22s reaches 90%% utilization at t=%.0f s\n" name t
    | None -> Printf.printf "%-22s never reached 90%% within 60 s\n" name
  in
  report "proteus-p (clipped)" (Proteus.Presets.proteus_p ());
  report "vivace (raw gradient)" (Proteus.Presets.vivace ());
  let stability name factory =
    (* Post-convergence dips: 10th percentile of 1 s throughput bins. *)
    let cfg = Exp_common.emulab_cfg () in
    let r = Net.Runner.create ~seed:5 cfg in
    let f = Net.Runner.add_flow r ~label:"stab" ~factory in
    Net.Runner.run r ~until:60.0;
    let series =
      Net.Flow_stats.throughput_series (Net.Runner.stats f) ~bin:1.0 ~until:60.0
    in
    let bins = Array.map snd (Array.sub series 10 50) in
    Printf.printf "%-22s steady p10 %5.1f Mbps, mean %5.1f Mbps\n" name
      (D.percentile bins ~p:10.0) (D.mean bins)
  in
  stability "proteus-p (clipped)" (Proteus.Presets.proteus_p ());
  stability "vivace (raw gradient)" (Proteus.Presets.vivace ());
  Printf.printf
    "\nShape check: clipping negative gradients reduces post-convergence\n\
     rate dips (§4.1: rewarding queue drain makes the sender undershoot).\n";
  Exp_common.header
    "Ablation — \"same metrics, greater penalty\" strawman (§2.2)";
  let proportional w =
    Proteus.Controller.factory
      (Proteus.Controller.default_config
         ~utility:(Proteus.Utility.proportional ~weight:w ()))
  in
  Printf.printf "%-26s %18s %26s\n" "scavenger candidate" "alone (Mbps)"
    "yield vs COPA (ratio %)";
  List.iter
    (fun (name, make) ->
      let alone = Exp_common.single_tput ~seed:1 (make ()) in
      let vs_copa =
        Exp_common.pair_run ~seed:1
          ~primary:(fun () -> Proteus_cc.Copa.factory ())
          ~scavenger:make ()
      in
      Printf.printf "%-26s %14.1f %22.1f%%\n" name alone
        (100.0 *. vs_copa.Exp_common.ratio))
    [
      ("proportional w=0.5", fun () -> proportional 0.5);
      ("proportional w=0.1", fun () -> proportional 0.1);
      ("proteus-s", fun () -> Proteus.Presets.proteus_s ());
    ];
  Printf.printf
    "\nShape check: the proportional strawman still takes a large share\n\
     from the latency-sensitive primary (low ratio) — exactly the §2.2\n\
     argument for using a *different* metric (RTT deviation) instead.\n";
  []
