let allegro () =
  Controller.factory (Controller.vivace_config ~utility:(Utility.allegro ()))

let vivace () =
  Controller.factory (Controller.vivace_config ~utility:(Utility.vivace ()))

let proteus_p () =
  Controller.factory (Controller.default_config ~utility:(Utility.proteus_p ()))

let proteus_s () =
  Controller.factory (Controller.default_config ~utility:(Utility.proteus_s ()))

let proteus_h ~threshold_mbps =
  Controller.factory
    (Controller.default_config ~utility:(Utility.proteus_h ~threshold_mbps ()))

let proteus_s_ablated ?(ack_filter = true) ?(regression_tolerance = true)
    ?(trending_tolerance = true) ?(majority_rule = true) () =
  let base = Controller.default_config ~utility:(Utility.proteus_s ()) in
  Controller.factory
    {
      base with
      Controller.use_ack_filter = ack_filter;
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
