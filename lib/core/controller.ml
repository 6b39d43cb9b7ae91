module Sender = Proteus_net.Sender
module Units = Proteus_net.Units
module Rng = Proteus_stats.Rng
module Trace = Proteus_obs.Trace

type probing_mode = Consistent2 | Majority3

type config = {
  utility : Utility.t;
  tolerance : Tolerance.config;
  use_ack_filter : bool;
  probing_mode : probing_mode;
  epsilon : float;
  initial_rate_mbps : float;
  min_rate_mbps : float;
  max_rate_mbps : float;
  max_swing_up : float;
  yield_hold : float;
}

let default_config ~utility =
  {
    utility;
    tolerance = Tolerance.proteus_default;
    use_ack_filter = true;
    probing_mode = Majority3;
    epsilon = 0.05;
    initial_rate_mbps = 2.0;
    min_rate_mbps = 0.05;
    max_rate_mbps = 2000.0;
    max_swing_up = 0.5;
    yield_hold = 0.0;
  }

let vivace_config ~utility =
  {
    utility;
    tolerance = Tolerance.vivace_default;
    use_ack_filter = false;
    probing_mode = Consistent2;
    epsilon = 0.05;
    initial_rate_mbps = 2.0;
    min_rate_mbps = 0.05;
    max_rate_mbps = 2000.0;
    max_swing_up = 0.5;
    yield_hold = 0.0;
  }

(* What a monitor interval was trialling. The [epoch] stamps results so
   that MIs planned by an abandoned phase instance cannot corrupt the
   decisions of a later one. *)
type tag =
  | Start
  | Probe of { epoch : int; pair : int; up : bool }
  | Move of { epoch : int }
  | Filler

(* Constant labels so Rate_decision trace notes allocate nothing. *)
let tag_name = function
  | Start -> "start"
  | Probe { up = true; _ } -> "probe-up"
  | Probe _ -> "probe-down"
  | Move _ -> "move"
  | Filler -> "filler"

type probing_state = {
  epoch : int;
  base_rate : float; (* bytes/s *)
  npairs : int;
  mutable probe_results : (int * bool * float) list; (* pair, up, utility *)
}

type phase =
  | Starting
  | Probing of probing_state
  | Moving of {
      epoch : int;
      dir : float;
      mutable k : int;
      mutable gradient : float; (* utility per Mbps *)
      mutable prev_rate : float; (* bytes/s *)
      mutable prev_utility : float;
    }

type t = {
  mutable utility : Utility.t;
  config : config;
  tolerance : Tolerance.t;
  ack_filter : Ack_filter.t option;
  rng : Rng.t;
  mtu : int;
  trace : Trace.t;
  (* Unboxed float state. Mutable float fields in this mixed record
     would box on every store, and three of these are stored per packet
     or per ACK. Slots: 0 = base rate (bytes/s), 1 = current MI
     deadline, 2 = pacing rate (bytes/s), 3 = srtt, 4 = next send time,
     5 = cached now, 6 = yield-hold expiry. *)
  fl : float array;
  mutable phase : phase;
  mutable epoch_counter : int;
  mutable last_start_sample : (float * float) option; (* rate, utility *)
  planned : (float * tag) Queue.t;
  (* MI slot pool. Slot [s] holds [mis.(s)] and the tag it trials; a
     completed MI's slot returns to the free stack and is [Mi.reset] on
     reuse, so steady state allocates no MI and no sample storage. Only
     the few MIs still awaiting ACKs hold a slot. *)
  mutable mis : Mi.t array;
  mutable mi_tags : tag array;
  mutable mi_free : int array; (* stack of free slots *)
  mutable mi_free_len : int;
  mutable current : int; (* slot of the MI being sent in; -1 = none *)
  (* In-flight seq -> MI slot, as a power-of-two direct-mapped table:
     entry = seq land (cap - 1), seqs.(i) = -1 marks an empty entry
     (whose slot is -1 too). Live seqs span one congestion window, far
     fewer than the capacity, so collisions are rare; on collision the
     table doubles until the live set maps injectively (distinct ints
     always separate under a wide enough mask). Both arrays hold ints,
     so the per-packet stores need no write barrier. *)
  mutable sm_seqs : int array;
  mutable sm_slots : int array;
  pending_results : (int, tag * Mi.metrics) Hashtbl.t;
  mutable next_mi_id : int;
  mutable next_result_id : int;
  mutable completed_mis : int;
}

let min_rate t = Units.mbps_to_bytes_per_sec t.config.min_rate_mbps
let max_rate t = Units.mbps_to_bytes_per_sec t.config.max_rate_mbps
let clamp_rate t r = Float.min (max_rate t) (Float.max (min_rate t) r)

let create (config : config) (env : Sender.env) =
  {
    utility = config.utility;
    config;
    tolerance = Tolerance.create config.tolerance;
    ack_filter =
      (if config.use_ack_filter then Some (Ack_filter.create ()) else None);
    rng = env.rng;
    mtu = env.mtu;
    trace = env.trace;
    fl =
      (let r0 = Units.mbps_to_bytes_per_sec config.initial_rate_mbps in
       [| r0; 0.0; r0; 0.05; 0.0; 0.0; neg_infinity |]);
    phase = Starting;
    epoch_counter = 0;
    last_start_sample = None;
    planned = Queue.create ();
    mis = [||];
    mi_tags = [||];
    mi_free = [||];
    mi_free_len = 0;
    current = -1;
    sm_seqs = Array.make 256 (-1);
    sm_slots = Array.make 256 (-1);
    pending_results = Hashtbl.create 16;
    next_mi_id = 0;
    next_result_id = 0;
    completed_mis = 0;
  }

let name t = "proteus:" ^ Utility.name t.utility

(* Switching objectives restarts the ramp: the new utility may deem a
   radically different rate optimal (scavenger -> primary can be three
   orders of magnitude), and the doubling phase reaches it in O(log)
   MIs where epsilon-probing would take minutes. Results from MIs
   planned under the old objective are ignored (phase/tag mismatch). *)
let set_utility t u =
  t.utility <- u;
  Queue.clear t.planned;
  t.phase <- Starting;
  t.last_start_sample <- None
let utility_name t = Utility.name t.utility
let rate_mbps t = Units.bytes_per_sec_to_mbps t.fl.(0)
let mi_count t = t.completed_mis

(* ---------- planning ---------- *)

let plan_probing t =
  Queue.clear t.planned;
  t.epoch_counter <- t.epoch_counter + 1;
  let epoch = t.epoch_counter in
  let npairs =
    match t.config.probing_mode with Consistent2 -> 2 | Majority3 -> 3
  in
  let eps = t.config.epsilon in
  for pair = 0 to npairs - 1 do
    let hi = (t.fl.(0) *. (1.0 +. eps), Probe { epoch; pair; up = true }) in
    let lo = (t.fl.(0) *. (1.0 -. eps), Probe { epoch; pair; up = false }) in
    let first, second = if Rng.bool t.rng then (hi, lo) else (lo, hi) in
    Queue.add first t.planned;
    Queue.add second t.planned
  done;
  t.phase <- Probing { epoch; base_rate = t.fl.(0); npairs; probe_results = [] }

let enter_probing t ~at_rate =
  t.fl.(0) <- clamp_rate t at_rate;
  t.last_start_sample <- None;
  plan_probing t

let plan_move t mv_epoch ~rate =
  Queue.clear t.planned;
  Queue.add (rate, Move { epoch = mv_epoch }) t.planned

(* Step size: gradient ascent with a confidence amplifier and a swing
   boundary proportional to the current rate (Vivace-style). Upward
   moves are additionally capped by [max_swing_up]: scavengers recover
   conservatively after yielding, so that bursty foreground traffic
   (web object waves, video chunks) is not re-taxed at every burst. *)
let step_bytes t ~k ~dir ~gradient =
  let rate_mbps = Units.bytes_per_sec_to_mbps t.fl.(0) in
  let amplifier = Float.min (2.0 ** float_of_int (k - 1)) 32.0 in
  let raw = amplifier *. Float.abs gradient (* Mbps *) in
  let cap = if dir > 0.0 then t.config.max_swing_up else 0.5 in
  let boundary =
    Float.min ((0.05 +. (0.1 *. float_of_int (k - 1))) *. rate_mbps)
      (cap *. rate_mbps)
  in
  let floor_step = 0.01 *. rate_mbps in
  Units.mbps_to_bytes_per_sec (Float.min boundary (Float.max floor_step raw))

(* ---------- state machine on completed MI results ---------- *)

let handle_start_result t ~rate_trialled ~u =
  match t.last_start_sample with
  | Some (prev_rate, prev_u) when rate_trialled > prev_rate && u < prev_u ->
      (* The doubled rate lowered utility: revert and probe. *)
      enter_probing t ~at_rate:prev_rate
  | Some (prev_rate, prev_u) ->
      if rate_trialled > prev_rate || u > prev_u then
        t.last_start_sample <- Some (rate_trialled, u);
      if t.fl.(0) <= rate_trialled *. 2.0 then
        t.fl.(0) <- clamp_rate t (rate_trialled *. 2.0)
  | None ->
      t.last_start_sample <- Some (rate_trialled, u);
      t.fl.(0) <- clamp_rate t (rate_trialled *. 2.0)

let direction_of_pair results pair =
  let find up = List.find_opt (fun (p, u_, _) -> p = pair && u_ = up) results in
  match (find true, find false) with
  | Some (_, _, u_hi), Some (_, _, u_lo) ->
      if u_hi > u_lo then Some 1 else if u_lo > u_hi then Some (-1) else Some 0
  | _ -> None

let avg_gradient t results npairs ~base_rate =
  let dr = 2.0 *. t.config.epsilon *. Units.bytes_per_sec_to_mbps base_rate in
  let sum = ref 0.0 and n = ref 0 in
  for pair = 0 to npairs - 1 do
    let find up = List.find_opt (fun (p, u_, _) -> p = pair && u_ = up) results in
    match (find true, find false) with
    | Some (_, _, u_hi), Some (_, _, u_lo) when dr > 0.0 ->
        sum := !sum +. ((u_hi -. u_lo) /. dr);
        incr n
    | _ -> ()
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let decide_direction t (ps : probing_state) =
  let dirs =
    List.filter_map (direction_of_pair ps.probe_results)
      (List.init ps.npairs (fun i -> i))
  in
  if List.length dirs < ps.npairs then None
  else
    match t.config.probing_mode with
    | Consistent2 -> (
        match dirs with [ a; b ] when a = b && a <> 0 -> Some a | _ -> Some 0)
    | Majority3 ->
        let count d = List.length (List.filter (fun x -> x = d) dirs) in
        if count 1 >= 2 then Some 1
        else if count (-1) >= 2 then Some (-1)
        else Some 0

let handle_probe_result t (ps : probing_state) ~pair ~up ~u =
  ps.probe_results <- (pair, up, u) :: ps.probe_results;
  match decide_direction t ps with
  | None -> ()
  | Some 0 ->
      t.fl.(0) <- clamp_rate t ps.base_rate;
      plan_probing t
  | Some 1 when t.fl.(5) < t.fl.(6) ->
      (* Recently yielded to a deviation signal: hold the rate down for
         a while instead of immediately re-probing upward, so bursty
         foreground traffic (web object waves, video chunks) is not
         re-taxed at every burst. *)
      t.fl.(0) <- clamp_rate t ps.base_rate;
      plan_probing t
  | Some dir_int ->
      let dir = float_of_int dir_int in
      let gradient =
        avg_gradient t ps.probe_results ps.npairs ~base_rate:ps.base_rate
      in
      let prev_rate = ps.base_rate *. (1.0 +. (dir *. t.config.epsilon)) in
      let prev_utility =
        let us =
          List.filter_map
            (fun (_, u_, util) ->
              if u_ = (dir_int = 1) then Some util else None)
            ps.probe_results
        in
        List.fold_left ( +. ) 0.0 us /. float_of_int (List.length us)
      in
      if dir_int < 0 then
        t.fl.(6) <- t.fl.(5) +. t.config.yield_hold;
      t.epoch_counter <- t.epoch_counter + 1;
      let epoch = t.epoch_counter in
      let step = step_bytes t ~k:1 ~dir ~gradient in
      let new_rate = clamp_rate t (prev_rate +. (dir *. step)) in
      t.fl.(0) <- new_rate;
      plan_move t epoch ~rate:new_rate;
      t.phase <- Moving { epoch; dir; k = 1; gradient; prev_rate; prev_utility }

let handle_move_result t ~rate_trialled ~u =
  match t.phase with
  | Moving mv ->
      if u >= mv.prev_utility then begin
        let dr =
          Units.bytes_per_sec_to_mbps rate_trialled
          -. Units.bytes_per_sec_to_mbps mv.prev_rate
        in
        if Float.abs dr > 1e-9 then mv.gradient <- (u -. mv.prev_utility) /. dr;
        mv.k <- mv.k + 1;
        mv.prev_rate <- rate_trialled;
        mv.prev_utility <- u;
        let step = step_bytes t ~k:mv.k ~dir:mv.dir ~gradient:mv.gradient in
        let new_rate = clamp_rate t (rate_trialled +. (mv.dir *. step)) in
        if new_rate = rate_trialled then enter_probing t ~at_rate:rate_trialled
        else begin
          t.fl.(0) <- new_rate;
          plan_move t mv.epoch ~rate:new_rate
        end
      end
      else enter_probing t ~at_rate:mv.prev_rate
  | _ -> ()

let handle_result t tag (m : Mi.metrics) =
  t.completed_mis <- t.completed_mis + 1;
  (* Guarded so the disabled-trace path passes no optional arguments
     (each would box a [Some] cell, and [~now] a float, per MI). *)
  let u =
    if Trace.enabled t.trace then
      Utility.eval ~trace:t.trace ~now:t.fl.(5) t.utility m
    else Utility.eval t.utility m
  in
  let rate_trialled = Units.mbps_to_bytes_per_sec m.Mi.target_rate_mbps in
  (match (t.phase, tag) with
  | Starting, Start -> handle_start_result t ~rate_trialled ~u
  | Probing ps, Probe { epoch; pair; up } when epoch = ps.epoch ->
      handle_probe_result t ps ~pair ~up ~u
  | Moving mv, Move { epoch } when epoch = mv.epoch ->
      handle_move_result t ~rate_trialled ~u
  | _, (Start | Probe _ | Move _ | Filler) -> ());
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:t.fl.(5) ~kind:Trace.Rate_decision ~flow:(-1)
      ~seq:t.completed_mis ~a:u
      ~b:(Units.bytes_per_sec_to_mbps t.fl.(0))
      ~note:(tag_name tag)

let process_pending t =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.pending_results t.next_result_id with
    | Some (tag, m) ->
        Hashtbl.remove t.pending_results t.next_result_id;
        t.next_result_id <- t.next_result_id + 1;
        handle_result t tag m
    | None -> continue := false
  done

(* ---------- MI slot pool ---------- *)

(* Double the pool; the new slots make up the free stack. *)
let grow_mis t =
  let cap = Array.length t.mis in
  let ncap = max 4 (2 * cap) in
  let fresh _ = Mi.create ~id:(-1) ~target_rate:0.0 ~start_time:0.0 in
  t.mis <- Array.append t.mis (Array.init (ncap - cap) fresh);
  t.mi_tags <- Array.append t.mi_tags (Array.make (ncap - cap) Filler);
  t.mi_free <- Array.make ncap 0;
  for i = 0 to ncap - cap - 1 do
    t.mi_free.(i) <- cap + i
  done;
  t.mi_free_len <- ncap - cap

let acquire_mi t ~id ~target_rate ~start_time =
  if t.mi_free_len = 0 then grow_mis t;
  t.mi_free_len <- t.mi_free_len - 1;
  let s = t.mi_free.(t.mi_free_len) in
  Mi.reset t.mis.(s) ~id ~target_rate ~start_time;
  s

let release_mi t s =
  t.mi_free.(t.mi_free_len) <- s;
  t.mi_free_len <- t.mi_free_len + 1

(* A complete MI's metrics are taken (and queued in MI-id order) before
   its slot is recycled; no in-flight seq maps to it any more, since
   every packet it sent was acknowledged or lost. *)
let check_complete t s =
  let mi = t.mis.(s) in
  if Mi.is_complete mi then begin
    let m = Tolerance.adjust t.tolerance (Mi.metrics mi) in
    Hashtbl.replace t.pending_results (Mi.id mi) (t.mi_tags.(s), m);
    release_mi t s;
    process_pending t
  end

(* ---------- MI lifecycle on the send path ---------- *)

let mi_duration t ~rate =
  let jitter = 1.0 +. (0.1 *. Rng.float t.rng 1.0) in
  let min_pkts = 5.0 in
  Float.max (t.fl.(3) *. jitter) (min_pkts *. float_of_int t.mtu /. rate)

let close_current t ~now =
  let s = t.current in
  if s >= 0 then begin
    let mi = t.mis.(s) in
    Mi.close mi ~end_time:now;
    if Trace.enabled t.trace then
      Trace.emit t.trace ~time:now ~kind:Trace.Mi_boundary ~flow:(-1)
        ~seq:(Mi.id mi)
        ~a:(now -. Mi.start_time mi)
        ~b:(float_of_int (Mi.packets_sent mi))
        ~note:(tag_name t.mi_tags.(s));
    t.current <- -1;
    if Mi.packets_sent mi = 0 then begin
      (* Nothing was sent in this MI: drop it from the result order. *)
      let id = Mi.id mi in
      if id = t.next_result_id then begin
        release_mi t s;
        t.next_result_id <- t.next_result_id + 1;
        process_pending t
      end
      else begin
        Hashtbl.replace t.pending_results id (Filler, Mi.metrics mi);
        release_mi t s
      end
    end
    else check_complete t s
  end

let start_new_mi t ~now =
  let rate, tag =
    if Queue.is_empty t.planned then
      (t.fl.(0), match t.phase with Starting -> Start | _ -> Filler)
    else Queue.pop t.planned
  in
  let rate = clamp_rate t rate in
  let s =
    acquire_mi t ~id:t.next_mi_id ~target_rate:rate ~start_time:now
  in
  t.mi_tags.(s) <- tag;
  t.next_mi_id <- t.next_mi_id + 1;
  t.current <- s;
  t.fl.(1) <- now +. mi_duration t ~rate;
  t.fl.(2) <- rate

(* The current MI's slot, opening a new MI when there is none or the
   current one has run its course. *)
let[@inline] ensure_current_mi t ~now =
  if t.current < 0 then start_new_mi t ~now
  else if now >= t.fl.(1) then begin
    close_current t ~now;
    start_new_mi t ~now
  end;
  t.current

let[@inline] close_if_expired t ~now =
  if t.current >= 0 && now >= t.fl.(1) then close_current t ~now

(* ---------- in-flight seq map ---------- *)

let sm_rehash t n =
  let mask = n - 1 in
  let seqs = Array.make n (-1) in
  let slots = Array.make n (-1) in
  let ok = ref true in
  let old_seqs = t.sm_seqs in
  Array.iteri
    (fun j k ->
      if k >= 0 && !ok then begin
        let i = k land mask in
        if seqs.(i) = -1 then begin
          seqs.(i) <- k;
          slots.(i) <- t.sm_slots.(j)
        end
        else ok := false
      end)
    old_seqs;
  if !ok then begin
    t.sm_seqs <- seqs;
    t.sm_slots <- slots
  end;
  !ok

let sm_grow t =
  let n = ref (Array.length t.sm_seqs * 2) in
  while not (sm_rehash t !n) do
    n := !n * 2
  done

let rec sm_store t seq s =
  let i = seq land (Array.length t.sm_seqs - 1) in
  let k = t.sm_seqs.(i) in
  if k = seq || k = -1 then begin
    t.sm_seqs.(i) <- seq;
    t.sm_slots.(i) <- s
  end
  else begin
    sm_grow t;
    sm_store t seq s
  end

(* Remove [seq]'s entry and return its MI slot, or -1 when [seq] is not
   in flight. Seq -1 matches every empty entry's -1 marker and returns
   that entry's slot, -1: callers must test the slot, not the match. *)
let sm_take t seq =
  let i = seq land (Array.length t.sm_seqs - 1) in
  if t.sm_seqs.(i) = seq then begin
    let s = t.sm_slots.(i) in
    t.sm_seqs.(i) <- -1;
    t.sm_slots.(i) <- -1;
    s
  end
  else -1

(* ---------- Sender.S ---------- *)

(* The four calls read the scratch directly (0 = now, 1 = send_time,
   2 = rtt, 3 = next-send result), so no float is boxed at the call
   boundary. *)
module Calls = struct
  type nonrec t = t

  let name = name

  let next_send_m t ~meta =
    ignore (ensure_current_mi t ~now:meta.(0));
    meta.(3) <- t.fl.(4)

  let on_sent_m t ~meta ~seq ~size =
    let now = meta.(0) in
    let s = ensure_current_mi t ~now in
    Mi.record_sent t.mis.(s) ~size;
    sm_store t seq s;
    t.fl.(4) <- Float.max now t.fl.(4) +. (float_of_int size /. t.fl.(2))

  let on_ack_m t ~meta ~seq ~size:_ =
    let now = meta.(0) and rtt = meta.(2) in
    t.fl.(5) <- now;
    t.fl.(3) <- (0.875 *. t.fl.(3)) +. (0.125 *. rtt);
    let accepted =
      match t.ack_filter with Some f -> Ack_filter.accept_m f ~meta | None -> true
    in
    close_if_expired t ~now;
    let s = sm_take t seq in
    if s >= 0 then begin
      Mi.record_ack_m t.mis.(s) ~meta ~accepted;
      check_complete t s
    end

  let on_loss_m t ~meta ~seq ~size:_ =
    let now = meta.(0) in
    t.fl.(5) <- now;
    close_if_expired t ~now;
    let s = sm_take t seq in
    if s >= 0 then begin
      Mi.record_loss t.mis.(s);
      check_complete t s
    end
end

include (Calls : Sender.S with type t := t)

let factory config : Proteus_net.Sender.factory =
 fun env -> Sender.pack (module Calls) (create config env)
