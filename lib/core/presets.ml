let allegro () =
  Controller.factory (Controller.vivace_config ~utility:(Utility.allegro ()))

let vivace () =
  Controller.factory (Controller.vivace_config ~utility:(Utility.vivace ()))

let proteus_p () =
  Controller.factory (Controller.default_config ~utility:(Utility.proteus_p ()))

(* Scavenger conservatism knobs (Controller.config.{max_swing_up,
   yield_hold}) are left at their defaults: a smaller up-swing or a
   post-yield hold-down makes the scavenger near-invisible to bursty
   sub-second foreground traffic (web object waves) but measurably
   degrades scavenger-vs-scavenger convergence, trading the paper's
   yielding goal against its performance goal — see DESIGN.md §6 and
   EXPERIMENTS.md (Fig. 11b). *)
let scavenger_swing = 0.5
let scavenger_hold = 0.0

let proteus_s () =
  Controller.factory
    { (Controller.default_config ~utility:(Utility.proteus_s ())) with
      Controller.max_swing_up = scavenger_swing;
      yield_hold = scavenger_hold }

let proteus_h ~threshold_mbps =
  Controller.factory
    { (Controller.default_config
         ~utility:(Utility.proteus_h ~threshold_mbps ())) with
      Controller.max_swing_up = scavenger_swing;
      yield_hold = scavenger_hold }

let proteus_s_ablated ?(ack_filter = true) ?(regression_tolerance = true)
    ?(trending_tolerance = true) ?(majority_rule = true) () =
  let base = Controller.default_config ~utility:(Utility.proteus_s ()) in
  Controller.factory
    {
      base with
      Controller.max_swing_up = scavenger_swing;
      yield_hold = scavenger_hold;
      use_ack_filter = ack_filter;
      tolerance =
        {
          Tolerance.proteus_default with
          Tolerance.regression_tolerance;
          trending_tolerance;
        };
      probing_mode =
        (if majority_rule then Controller.Majority3 else Controller.Consistent2);
    }

let with_handle config =
  let handle = ref None in
  let factory env =
    if !handle <> None then
      invalid_arg "Presets.with_handle: factory used for multiple flows";
    let c = Controller.create config env in
    handle := Some c;
    Proteus_net.Sender.pack (module Controller) c
  in
  (factory, fun () -> !handle)
