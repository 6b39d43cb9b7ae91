(* LEDBAT as a datapath fold program + control handler. The rolling
   delay filters — RFC 6817's one-minute base-delay buckets and the
   4-sample current filter — are fixed register banks (newest at index
   0, a shift rotates a new entry in, live counts bound the minimum
   folds); the loss halving runs in the control handler behind an
   On_loss report. *)

module Dp = Proteus.Datapath
module Units = Proteus_net.Units

type params = { target_ms : float; gain : float }

let default = { target_ms = 100.0; gain = 1.0 }
let draft_25ms = { target_ms = 25.0; gain = 1.0 }
let min_cwnd = 2.0
let base_history = 10 (* one-minute buckets, RFC 6817 *)
let current_filter = 4 (* current delay = min of last 4 samples *)

(* Register layout. *)
let r_cwnd = 0
let r_srtt = 1
let r_last_red = 2
let r_bucket_started = 3
let r_nbase = 4 (* live bucket count, integral float *)
let r_base0 = 5 (* base0..base9: newest bucket first *)
let r_nrecent = 15 (* live current-filter count *)
let r_recent0 = 16 (* recent0..recent3: newest sample first *)
let r_target = 20 (* const: queueing target, seconds *)
let r_gain = 21 (* const *)
let r_mtu = 22 (* const: packet size, bytes (from env) *)

let register_names =
  [ "cwnd"; "srtt"; "last_reduction"; "bucket_started"; "nbase" ]
  @ List.init base_history (Printf.sprintf "base%d")
  @ [ "nrecent" ]
  @ List.init current_filter (Printf.sprintf "recent%d")
  @ [ "target"; "gain"; "mtu" ]

let i_rtt = Dp.signal_index Dp.Rtt_sample
let i_now = Dp.signal_index Dp.Now
let i_bytes = Dp.signal_index Dp.Bytes_acked

(* Branch-only [Float.max] / [Float.min], equal to them on every input
   (see [Descriptive.fmax]): the stdlib's call the C [caml_signbit]
   whenever their first comparison fails. Local and inlined, so no
   float crosses a module boundary. *)
let[@inline] fmax (a : float) b =
  if a > b then a
  else if b > a then b
  else if a = b then (if a = 0.0 then a +. b else a)
  else Float.max a b

let[@inline] fmin (a : float) b =
  if a < b then a
  else if b < a then b
  else if a = b then (if a = 0.0 then -.(-.a -. b) else a)
  else Float.min a b

(* Minimum over the live entries of a newest-first bank, seeded with
   [infinity]. *)
let[@inline] bank_min regs ~first ~live =
  let m = ref infinity in
  for i = 0 to int_of_float regs.(live) - 1 do
    m := fmin !m regs.(first + i)
  done;
  !m

let base_delay regs = bank_min regs ~first:r_base0 ~live:r_nbase

(* The adapter owns inflight: it decrements it before this fold runs. *)
let on_ack regs sigs =
  let rtt = sigs.(i_rtt) in
  let now = sigs.(i_now) in
  regs.(r_srtt) <- (0.875 *. regs.(r_srtt)) +. (0.125 *. rtt);
  (* RFC 6817 uses one-way delay; the reverse path is uncongested in
     the simulator, so the RTT carries exactly the forward queueing
     delay. Rotate a fresh one-minute bucket in, or fold the sample
     into the current (newest) bucket. *)
  if now -. regs.(r_bucket_started) >= 60.0 then begin
    regs.(r_bucket_started) <- now;
    for i = base_history - 1 downto 1 do
      regs.(r_base0 + i) <- regs.(r_base0 + i - 1)
    done;
    regs.(r_base0) <- rtt;
    if regs.(r_nbase) < float_of_int base_history then
      regs.(r_nbase) <- regs.(r_nbase) +. 1.0
  end
  else regs.(r_base0) <- fmin regs.(r_base0) rtt;
  (* Current filter: the newest [current_filter] samples. *)
  for i = current_filter - 1 downto 1 do
    regs.(r_recent0 + i) <- regs.(r_recent0 + i - 1)
  done;
  regs.(r_recent0) <- rtt;
  if regs.(r_nrecent) < float_of_int current_filter then
    regs.(r_nrecent) <- regs.(r_nrecent) +. 1.0;
  let base = bank_min regs ~first:r_base0 ~live:r_nbase in
  let cur = bank_min regs ~first:r_recent0 ~live:r_nrecent in
  let queuing = fmax 0.0 (cur -. base) in
  let off_target = (regs.(r_target) -. queuing) /. regs.(r_target) in
  let bytes = sigs.(i_bytes) in
  let increment =
    regs.(r_gain) *. off_target *. bytes /. (regs.(r_cwnd) *. regs.(r_mtu))
  in
  (* RFC: allowed_increase caps ramp-up to one packet per RTT per cwnd
     of acked data; the proportional controller above already respects
     that for gain <= 1. Decrease is clamped so one bad sample cannot
     collapse the window. *)
  let increment = fmax increment (-1.0) in
  regs.(r_cwnd) <- fmax min_cwnd (regs.(r_cwnd) +. increment)

(* Initial values in [register_names] order: one live base bucket
   (empty, so infinity), no current-filter samples yet. *)
let program ?(params = default) (env : Proteus_net.Sender.env) =
  let target = Units.ms params.target_ms in
  let inits =
    [ min_cwnd; 0.1; neg_infinity; 0.0; 1.0 ]
    @ (infinity :: List.init (base_history - 1) (fun _ -> 0.0))
    @ [ 0.0 ]
    @ List.init current_filter (fun _ -> 0.0)
    @ [ target; params.gain; float_of_int env.mtu ]
  in
  {
    Dp.p_name = Printf.sprintf "ledbat-%g" (Units.sec_to_ms target);
    p_regs = Array.of_list (List.map2 Dp.reg register_names inits);
    p_cwnd = r_cwnd;
    p_on_ack = on_ack;
    p_triggers = [| Dp.On_loss |];
  }

let handler (rep : Dp.report) =
  match rep.Dp.rp_cause with
  | Dp.Loss_event ->
      let regs = rep.Dp.rp_regs in
      let now = rep.Dp.rp_time in
      if now -. regs.(r_last_red) > regs.(r_srtt) then begin
        regs.(r_last_red) <- now;
        regs.(r_cwnd) <- fmax min_cwnd (regs.(r_cwnd) /. 2.0)
      end
  | Dp.Interval -> ()

let factory ?params ?interval ?consts () : Proteus_net.Sender.factory =
  Dp.to_factory
    ~program:(fun env ->
      Dp.with_overrides ?interval ?consts (program ?params env))
    ~handler
