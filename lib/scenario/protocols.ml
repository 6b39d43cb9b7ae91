(* The protocol registry the scenario language (and proteus-sim) draw
   from: one name per congestion controller, plus the parameterized
   "blaster=RATE_MBPS" constant-rate sender. *)

let known =
  [
    "cubic";
    "cubic-dp";
    "bbr";
    "bbr-s";
    "copa";
    "ledbat";
    "ledbat-100";
    "ledbat-25";
    "ledbat-dp";
    "vivace";
    "proteus-p";
    "proteus-s";
  ]

(* CUBIC and LEDBAT are fold programs. Their datapath names, cubic-dp
   and ledbat-dp, resolve to the same factories as cubic and ledbat;
   only those two names take the (datapath NAME (interval T)
   (const REG V) ...) override form.

   (const REG V) sets a parameter's initial value, each checked here.
   The other registers are flow state (CUBIC's epoch and smoothed RTT,
   LEDBAT's delay filters) or, for LEDBAT's mtu, taken from the
   sender's environment. Values out of these ranges break a run: a
   window that never fills (a cwnd of 1e300, or one grown there in one
   ACK by a LEDBAT gain of 1e300 or a far-past CUBIC epoch) keeps the
   runner sending at one simulated instant, and a filter count past its
   bank indexes out of bounds. *)

let max_cwnd = 10_000.0

let check_cwnd v =
  if v >= 1.0 && v <= max_cwnd then None
  else Some (Printf.sprintf "must be in [1, %g] packets" max_cwnd)

let datapath_params name =
  match String.lowercase_ascii name with
  | "cubic-dp" -> [ ("cwnd", check_cwnd); ("ssthresh", fun _ -> None) ]
  | "ledbat-dp" ->
      [
        ("cwnd", check_cwnd);
        ( "target",
          fun v -> if v > 0.0 then None else Some "must be positive (seconds)"
        );
        ( "gain",
          fun v ->
            if v > 0.0 && v <= 1.0 then None
            else Some "must be in (0, 1] (RFC 6817)" );
      ]
  | _ -> []

let datapath_registers name = List.map fst (datapath_params name)

let datapath_const_error name reg v =
  let params = datapath_params name in
  match List.assoc_opt reg params with
  | None ->
      Some
        (Printf.sprintf "cannot be set (want one of %s)"
           (String.concat " " (List.map fst params)))
  | Some _ when not (Float.is_finite v) -> Some "must be finite"
  | Some check -> check v

let datapath_factory ?interval ?(consts = []) name :
    (Proteus_net.Sender.factory, string) result =
  match String.lowercase_ascii name with
  | "cubic-dp" -> Ok (Proteus_cc.Cubic.factory ?interval ~consts ())
  | "ledbat-dp" -> Ok (Proteus_cc.Ledbat.factory ?interval ~consts ())
  | name ->
      Error
        (Printf.sprintf
           "%S is not a datapath protocol (want cubic-dp or ledbat-dp)" name)

let blaster_rate name =
  if String.length name > 8 && String.sub name 0 8 = "blaster=" then
    match float_of_string_opt (String.sub name 8 (String.length name - 8)) with
    | Some rate when Float.is_finite rate && rate > 0.0 -> Ok (Some rate)
    | _ -> Error (Printf.sprintf "bad blaster rate in %S" name)
  else Ok None

let validate name =
  let name = String.lowercase_ascii name in
  if List.mem name known then Ok ()
  else
    match blaster_rate name with
    | Ok (Some _) -> Ok ()
    | Error e -> Error e
    | Ok None ->
        Error
          (Printf.sprintf "unknown protocol %S (want one of %s, blaster=RATE)"
             name
             (String.concat " " known))

let factory name : (Proteus_net.Sender.factory, string) result =
  match String.lowercase_ascii name with
  | "cubic" | "cubic-dp" -> Ok (Proteus_cc.Cubic.factory ())
  | "bbr" -> Ok (Proteus_cc.Bbr.factory ())
  | "bbr-s" -> Ok (Proteus_cc.Bbr.scavenger_factory ())
  | "copa" -> Ok (Proteus_cc.Copa.factory ())
  | "ledbat" | "ledbat-100" | "ledbat-dp" -> Ok (Proteus_cc.Ledbat.factory ())
  | "ledbat-25" ->
      Ok (Proteus_cc.Ledbat.factory ~params:Proteus_cc.Ledbat.draft_25ms ())
  | "vivace" -> Ok (Proteus.Presets.vivace ())
  | "proteus-p" -> Ok (Proteus.Presets.proteus_p ())
  | "proteus-s" -> Ok (Proteus.Presets.proteus_s ())
  | name -> (
      match blaster_rate name with
      | Ok (Some rate) -> Ok (Proteus_cc.Blaster.factory ~rate_mbps:rate)
      | Error e -> Error e
      | Ok None -> (
          match validate name with
          | Error e -> Error e
          | Ok () -> Error (Printf.sprintf "unhandled protocol %S" name)))
