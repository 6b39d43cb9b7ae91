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
  }

(* [Units]' rate conversions, written out: they run once per MI, and a
   call across the module boundary would box its float. *)
let[@inline] to_mbps b = b *. 8.0 /. 1e6
let[@inline] of_mbps m = m *. 1e6 /. 8.0

(* The utilities one probing round has observed. Probe MI [(pair, up)]
   reports to vote slot [2 pair] (the upper rate) or [2 pair + 1]; a
   round holds at most three pairs. Arrival order is kept because
   {!mean_utility} sums newest first, the order the committed goldens
   were computed in. *)
module Votes = struct
  type t = {
    u : float array; (* by slot *)
    order : int array; (* slots in arrival order *)
    mutable n : int;
    mutable npairs : int;
  }

  let max_pairs = 3

  let create () =
    {
      u = Array.make (2 * max_pairs) 0.0;
      order = Array.make (2 * max_pairs) 0;
      n = 0;
      npairs = 0;
    }

  let reset v ~npairs =
    v.n <- 0;
    v.npairs <- npairs

  let[@inline] slot ~pair ~up = (2 * pair) + if up then 0 else 1

  (* Each slot is planned once per round, so it reports at most once. *)
  let add v ~slot ~u =
    v.u.(slot) <- u;
    v.order.(v.n) <- slot;
    v.n <- v.n + 1

  (* Every pair has reported both rates. *)
  let complete v = v.n = 2 * v.npairs

  let pair_dir v pair =
    let hi = v.u.(2 * pair) and lo = v.u.((2 * pair) + 1) in
    if hi > lo then 1 else if lo > hi then -1 else 0

  (* Of a complete round: 1 (up), -1 (down) or 0 (no clear direction). *)
  let direction v mode =
    match mode with
    | Consistent2 ->
        let a = pair_dir v 0 and b = pair_dir v 1 in
        if a = b && a <> 0 then a else 0
    | Majority3 ->
        let ups = ref 0 and downs = ref 0 in
        for pair = 0 to v.npairs - 1 do
          match pair_dir v pair with
          | 1 -> incr ups
          | -1 -> incr downs
          | _ -> ()
        done;
        if !ups >= 2 then 1 else if !downs >= 2 then -1 else 0

  (* Mean utility slope (per Mbps) across the pairs of a complete
     round. *)
  let[@inline] gradient v ~epsilon ~base_rate =
    let dr = 2.0 *. epsilon *. to_mbps base_rate in
    if dr > 0.0 then begin
      let sum = ref 0.0 in
      for pair = 0 to v.npairs - 1 do
        sum := !sum +. ((v.u.(2 * pair) -. v.u.((2 * pair) + 1)) /. dr)
      done;
      !sum /. float_of_int v.npairs
    end
    else 0.0

  (* Mean utility of the upper (or lower) trials of a complete round. *)
  let[@inline] mean_utility v ~up =
    let side = if up then 0 else 1 in
    let sum = ref 0.0 in
    for i = v.n - 1 downto 0 do
      let s = v.order.(i) in
      if s land 1 = side then sum := !sum +. v.u.(s)
    done;
    !sum /. float_of_int v.npairs
end

(* What a monitor interval trials, packed in an int: the kind in the
   low 4 bits, the epoch above them. Probe kinds are [kind_probe] plus
   the vote slot. The epoch stamps results so that MIs planned by an
   abandoned phase instance cannot corrupt the decisions of a later
   one. *)
let kind_start = 0
let kind_filler = 1
let kind_move = 2
let kind_probe = 4
let[@inline] tag ~epoch kind = (epoch lsl 4) lor kind
let[@inline] tag_kind tag = tag land 15
let[@inline] tag_epoch tag = tag lsr 4

(* Constant labels so Rate_decision trace notes allocate nothing. *)
let tag_name tag =
  let k = tag_kind tag in
  if k = kind_start then "start"
  else if k = kind_move then "move"
  else if k = kind_filler then "filler"
  else if (k - kind_probe) land 1 = 0 then "probe-up"
  else "probe-down"

type phase = Starting | Probing | Moving

(* Unboxed float state: an all-float record is stored flat, so its
   stores (several per packet, per ACK or per MI) allocate nothing, as
   mutable float fields of the mixed [t] would. *)
type floats = {
  mutable base_rate : float; (* bytes/s *)
  mutable deadline : float; (* end of the current MI *)
  mutable pacing_rate : float; (* bytes/s *)
  mutable srtt : float;
  mutable next_send : float;
  mutable now : float; (* of the latest ACK or loss *)
  mutable min_rate : float; (* bytes/s, from the config *)
  mutable max_rate : float;
  (* Probing: the rate the pairs straddle. *)
  mutable probe_base : float;
  (* Moving: direction (+-1), gradient (utility per Mbps), and the
     previous step's rate (bytes/s) and utility. *)
  mutable mv_dir : float;
  mutable mv_gradient : float;
  mutable mv_prev_rate : float;
  mutable mv_prev_utility : float;
  (* Starting: the best (rate, utility) sample so far; NaN rate = none. *)
  mutable start_rate : float;
  mutable start_utility : float;
}

type t = {
  mutable utility : Utility.t;
  config : config;
  tolerance : Tolerance.t;
  ack_filter : Ack_filter.t option;
  rng : Rng.t;
  mtu : int;
  trace : Trace.t;
  flow : int; (* the runner's flow index, for trace events *)
  fl : floats;
  mutable phase : phase;
  mutable epoch : int; (* of the current probing or moving phase *)
  mutable mv_k : int; (* moving: steps taken in this direction *)
  votes : Votes.t;
  (* Planned MIs, a queue of at most [2 * Votes.max_pairs] (rate, tag)
     entries in [plan_rate]/[plan_tag] from [plan_head] to [plan_len]. *)
  plan_rate : float array;
  plan_tag : int array;
  mutable plan_head : int;
  mutable plan_len : int;
  (* MI slot pool. Slot [s] holds [mis.(s)] and the tag it trials; a
     completed MI's slot returns to the free stack and is [Mi.reset] on
     reuse, so steady state allocates no MI and no sample storage. Only
     the few MIs still awaiting ACKs hold a slot. [mi_times] passes an
     MI its target rate, start and end time (see [Mi.reset]). *)
  mutable mis : Mi.t array;
  mutable mi_tags : int array;
  mutable mi_free : int array; (* stack of free slots *)
  mutable mi_free_len : int;
  mutable current : int; (* slot of the MI being sent in; -1 = none *)
  mi_times : float array;
  (* In-flight seq -> MI slot, as a power-of-two direct-mapped table:
     entry = seq land (cap - 1), seqs.(i) = -1 marks an empty entry
     (whose slot is -1 too). Live seqs span one congestion window, far
     fewer than the capacity, so collisions are rare; on collision the
     table doubles until the live set maps injectively (distinct ints
     always separate under a wide enough mask). Both arrays hold ints,
     so the per-packet stores need no write barrier. *)
  mutable sm_seqs : int array;
  mutable sm_slots : int array;
  (* Completed MIs awaiting their turn in MI-id order, in a power-of-two
     ring keyed by id: entry = id land (cap - 1) holds the MI's id (-1 =
     empty), tag and adjusted metrics. Waiting ids lie in
     [next_result_id, next_result_id + cap), so they never collide; an
     id past that range doubles the ring. The metrics records are
     filled in place and reused. *)
  mutable res_ids : int array;
  mutable res_tags : int array;
  mutable res_ms : Mi.metrics array;
  mutable next_mi_id : int;
  mutable next_result_id : int;
  mutable completed_mis : int;
}

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

let[@inline] clamp_rate t r = fmin t.fl.max_rate (fmax t.fl.min_rate r)

let create (config : config) (env : Sender.env) =
  let r0 = of_mbps config.initial_rate_mbps in
  {
    utility = config.utility;
    config;
    tolerance = Tolerance.create config.tolerance;
    ack_filter =
      (if config.use_ack_filter then Some (Ack_filter.create ()) else None);
    rng = env.rng;
    mtu = env.mtu;
    trace = env.trace;
    flow = env.flow;
    fl =
      {
        base_rate = r0;
        deadline = 0.0;
        pacing_rate = r0;
        srtt = 0.05;
        next_send = 0.0;
        now = 0.0;
        min_rate = of_mbps config.min_rate_mbps;
        max_rate = of_mbps config.max_rate_mbps;
        probe_base = 0.0;
        mv_dir = 0.0;
        mv_gradient = 0.0;
        mv_prev_rate = 0.0;
        mv_prev_utility = 0.0;
        start_rate = Float.nan;
        start_utility = 0.0;
      };
    phase = Starting;
    epoch = 0;
    mv_k = 0;
    votes = Votes.create ();
    plan_rate = Array.make (2 * Votes.max_pairs) 0.0;
    plan_tag = Array.make (2 * Votes.max_pairs) 0;
    plan_head = 0;
    plan_len = 0;
    mis = [||];
    mi_tags = [||];
    mi_free = [||];
    mi_free_len = 0;
    current = -1;
    mi_times = Array.make 3 0.0;
    sm_seqs = Array.make 256 (-1);
    sm_slots = Array.make 256 (-1);
    res_ids = Array.make 8 (-1);
    res_tags = Array.make 8 0;
    res_ms = Array.init 8 (fun _ -> Mi.zero_metrics ());
    next_mi_id = 0;
    next_result_id = 0;
    completed_mis = 0;
  }

let name t = "proteus:" ^ Utility.name t.utility

let clear_plan t =
  t.plan_head <- 0;
  t.plan_len <- 0

let[@inline] push_plan t ~rate ~tag =
  t.plan_rate.(t.plan_len) <- rate;
  t.plan_tag.(t.plan_len) <- tag;
  t.plan_len <- t.plan_len + 1

(* Switching objectives restarts the ramp: the new utility may deem a
   radically different rate optimal (scavenger -> primary can be three
   orders of magnitude), and the doubling phase reaches it in O(log)
   MIs where epsilon-probing would take minutes. Results from MIs
   planned under the old objective are ignored (phase/tag mismatch). *)
let set_utility t u =
  t.utility <- u;
  clear_plan t;
  t.phase <- Starting;
  t.fl.start_rate <- Float.nan
let utility_name t = Utility.name t.utility
let rate_mbps t = Units.bytes_per_sec_to_mbps t.fl.base_rate
let mi_count t = t.completed_mis
let moments_fields t = Tolerance.moments_fields t.tolerance

(* ---------- planning ---------- *)

let plan_probing t =
  clear_plan t;
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let npairs =
    match t.config.probing_mode with Consistent2 -> 2 | Majority3 -> 3
  in
  let eps = t.config.epsilon in
  let base = t.fl.base_rate in
  for pair = 0 to npairs - 1 do
    let hi = tag ~epoch (kind_probe + Votes.slot ~pair ~up:true)
    and lo = tag ~epoch (kind_probe + Votes.slot ~pair ~up:false) in
    if Rng.bool t.rng then begin
      push_plan t ~rate:(base *. (1.0 +. eps)) ~tag:hi;
      push_plan t ~rate:(base *. (1.0 -. eps)) ~tag:lo
    end
    else begin
      push_plan t ~rate:(base *. (1.0 -. eps)) ~tag:lo;
      push_plan t ~rate:(base *. (1.0 +. eps)) ~tag:hi
    end
  done;
  Votes.reset t.votes ~npairs;
  t.fl.probe_base <- base;
  t.phase <- Probing

let[@inline] enter_probing t ~at_rate =
  t.fl.base_rate <- clamp_rate t at_rate;
  t.fl.start_rate <- Float.nan;
  plan_probing t

let plan_move t =
  clear_plan t;
  push_plan t ~rate:t.fl.base_rate ~tag:(tag ~epoch:t.epoch kind_move)

(* Step size: gradient ascent with a confidence amplifier and a swing
   boundary proportional to the current rate (Vivace-style), capped at
   half the rate. *)
let[@inline] step_bytes t ~k ~gradient =
  let rate_mbps = to_mbps t.fl.base_rate in
  let amplifier = fmin (2.0 ** float_of_int (k - 1)) 32.0 in
  let raw = amplifier *. Float.abs gradient (* Mbps *) in
  let boundary =
    fmin ((0.05 +. (0.1 *. float_of_int (k - 1))) *. rate_mbps)
      (0.5 *. rate_mbps)
  in
  let floor_step = 0.01 *. rate_mbps in
  of_mbps (fmin boundary (fmax floor_step raw))

(* ---------- state machine on completed MI results ---------- *)

(* The rate an MI trialled (bytes/s), as its metrics report it. *)
let[@inline] rate_trialled (m : Mi.metrics) = of_mbps m.Mi.target_rate_mbps

(* [u] is the utility of the MI [m]. The metrics come in place of the
   rate they report, which as an argument would be boxed. *)
let handle_start_result t m ~u =
  let rate_trialled = rate_trialled m in
  let fl = t.fl in
  let prev_rate = fl.start_rate and prev_u = fl.start_utility in
  if Float.is_nan prev_rate then begin
    fl.start_rate <- rate_trialled;
    fl.start_utility <- u;
    fl.base_rate <- clamp_rate t (rate_trialled *. 2.0)
  end
  else if rate_trialled > prev_rate && u < prev_u then
    (* The doubled rate lowered utility: revert and probe. *)
    enter_probing t ~at_rate:prev_rate
  else begin
    if rate_trialled > prev_rate || u > prev_u then begin
      fl.start_rate <- rate_trialled;
      fl.start_utility <- u
    end;
    if fl.base_rate <= rate_trialled *. 2.0 then
      fl.base_rate <- clamp_rate t (rate_trialled *. 2.0)
  end

let handle_probe_result t ~slot ~u =
  let v = t.votes and fl = t.fl in
  Votes.add v ~slot ~u;
  if Votes.complete v then begin
    let dir_int = Votes.direction v t.config.probing_mode in
    if dir_int = 0 then begin
      (* No clear direction: probe again around the same rate. *)
      fl.base_rate <- clamp_rate t fl.probe_base;
      plan_probing t
    end
    else begin
      let dir = float_of_int dir_int in
      let gradient =
        Votes.gradient v ~epsilon:t.config.epsilon ~base_rate:fl.probe_base
      in
      let prev_rate = fl.probe_base *. (1.0 +. (dir *. t.config.epsilon)) in
      let prev_utility = Votes.mean_utility v ~up:(dir_int = 1) in
      t.epoch <- t.epoch + 1;
      let step = step_bytes t ~k:1 ~gradient in
      fl.base_rate <- clamp_rate t (prev_rate +. (dir *. step));
      plan_move t;
      t.phase <- Moving;
      t.mv_k <- 1;
      fl.mv_dir <- dir;
      fl.mv_gradient <- gradient;
      fl.mv_prev_rate <- prev_rate;
      fl.mv_prev_utility <- prev_utility
    end
  end

let handle_move_result t m ~u =
  let rate_trialled = rate_trialled m in
  let fl = t.fl in
  if u >= fl.mv_prev_utility then begin
    let dr = to_mbps rate_trialled -. to_mbps fl.mv_prev_rate in
    if Float.abs dr > 1e-9 then
      fl.mv_gradient <- (u -. fl.mv_prev_utility) /. dr;
    t.mv_k <- t.mv_k + 1;
    fl.mv_prev_rate <- rate_trialled;
    fl.mv_prev_utility <- u;
    let step = step_bytes t ~k:t.mv_k ~gradient:fl.mv_gradient in
    let new_rate = clamp_rate t (rate_trialled +. (fl.mv_dir *. step)) in
    if new_rate = rate_trialled then enter_probing t ~at_rate:rate_trialled
    else begin
      fl.base_rate <- new_rate;
      plan_move t
    end
  end
  else enter_probing t ~at_rate:fl.mv_prev_rate

let handle_result t tag (m : Mi.metrics) =
  t.completed_mis <- t.completed_mis + 1;
  (* Guarded so the disabled-trace path passes no optional arguments
     (each would box a [Some] cell, and [~now] a float, per MI). *)
  let u =
    if Trace.enabled t.trace then
      Utility.eval ~trace:t.trace ~now:t.fl.now ~flow:t.flow t.utility m
    else Utility.eval t.utility m
  in
  let kind = tag_kind tag in
  (match t.phase with
  | Starting -> if kind = kind_start then handle_start_result t m ~u
  | Probing ->
      if kind >= kind_probe && tag_epoch tag = t.epoch then
        handle_probe_result t ~slot:(kind - kind_probe) ~u
  | Moving ->
      if kind = kind_move && tag_epoch tag = t.epoch then
        handle_move_result t m ~u);
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:t.fl.now ~kind:Trace.Rate_decision ~flow:t.flow
      ~seq:t.completed_mis ~a:u
      ~b:(Units.bytes_per_sec_to_mbps t.fl.base_rate)
      ~note:(tag_name tag)

let rec process_pending t =
  let id = t.next_result_id in
  let e = id land (Array.length t.res_ids - 1) in
  if t.res_ids.(e) = id then begin
    t.res_ids.(e) <- -1;
    t.next_result_id <- id + 1;
    handle_result t t.res_tags.(e) t.res_ms.(e);
    process_pending t
  end

(* Double the result ring until MI [id] fits beside the waiting ones. *)
let grow_results t id =
  let cap = ref (Array.length t.res_ids) in
  while id - t.next_result_id >= !cap do
    cap := 2 * !cap
  done;
  let ids = Array.make !cap (-1) and tags = Array.make !cap 0 in
  let ms = Array.init !cap (fun _ -> Mi.zero_metrics ()) in
  Array.iteri
    (fun j i ->
      if i >= 0 then begin
        let e = i land (!cap - 1) in
        ids.(e) <- i;
        tags.(e) <- t.res_tags.(j);
        ms.(e) <- t.res_ms.(j)
      end)
    t.res_ids;
  t.res_ids <- ids;
  t.res_tags <- tags;
  t.res_ms <- ms

(* The ring entry for MI [id]'s result, marked taken. *)
let result_entry t id ~tag =
  if id - t.next_result_id >= Array.length t.res_ids then grow_results t id;
  let e = id land (Array.length t.res_ids - 1) in
  t.res_ids.(e) <- id;
  t.res_tags.(e) <- tag;
  e

(* ---------- MI slot pool ---------- *)

(* Double the pool; the new slots make up the free stack. *)
let grow_mis t =
  let cap = Array.length t.mis in
  let ncap = max 4 (2 * cap) in
  let fresh _ = Mi.create ~id:(-1) ~target_rate:0.0 ~start_time:0.0 in
  t.mis <- Array.append t.mis (Array.init (ncap - cap) fresh);
  t.mi_tags <- Array.append t.mi_tags (Array.make (ncap - cap) 0);
  t.mi_free <- Array.make ncap 0;
  for i = 0 to ncap - cap - 1 do
    t.mi_free.(i) <- cap + i
  done;
  t.mi_free_len <- ncap - cap

let acquire_mi t ~id =
  if t.mi_free_len = 0 then grow_mis t;
  t.mi_free_len <- t.mi_free_len - 1;
  let s = t.mi_free.(t.mi_free_len) in
  Mi.reset t.mis.(s) ~id ~times:t.mi_times;
  s

let release_mi t s =
  t.mi_free.(t.mi_free_len) <- s;
  t.mi_free_len <- t.mi_free_len + 1

(* A complete MI's metrics are taken (and queued in MI-id order) before
   its slot is recycled; no in-flight seq maps to it any more, since
   every packet it sent was acknowledged or lost. Only completion runs
   the tolerance, in completion order. *)
let check_complete t s =
  let mi = t.mis.(s) in
  if Mi.is_complete mi then begin
    let e = result_entry t (Mi.id mi) ~tag:t.mi_tags.(s) in
    let m = t.res_ms.(e) in
    Mi.metrics_into mi m;
    Tolerance.adjust t.tolerance m;
    release_mi t s;
    process_pending t
  end

(* ---------- MI lifecycle on the send path ---------- *)

let[@inline] mi_duration t ~rate =
  let jitter = 1.0 +. (0.1 *. Rng.float t.rng 1.0) in
  let min_pkts = 5.0 in
  fmax (t.fl.srtt *. jitter) (min_pkts *. float_of_int t.mtu /. rate)

(* [close_current] and [start_new_mi] take the time as [meta.(0)], in
   the call protocol's scratch: as an argument it would be boxed. *)
let close_current t ~meta =
  let s = t.current in
  if s >= 0 then begin
    let now = meta.(0) in
    let mi = t.mis.(s) in
    t.mi_times.(2) <- now;
    Mi.close mi ~times:t.mi_times;
    if Trace.enabled t.trace then
      Trace.emit t.trace ~time:now ~kind:Trace.Mi_boundary ~flow:t.flow
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
        let e = result_entry t id ~tag:kind_filler in
        Mi.metrics_into mi t.res_ms.(e);
        release_mi t s
      end
    end
    else check_complete t s
  end

let start_new_mi t ~meta =
  let now = meta.(0) in
  let rate, tag =
    if t.plan_head = t.plan_len then
      (t.fl.base_rate, if t.phase = Starting then kind_start else kind_filler)
    else begin
      let i = t.plan_head in
      t.plan_head <- i + 1;
      (t.plan_rate.(i), t.plan_tag.(i))
    end
  in
  let rate = clamp_rate t rate in
  t.mi_times.(0) <- rate;
  t.mi_times.(1) <- now;
  let s = acquire_mi t ~id:t.next_mi_id in
  t.mi_tags.(s) <- tag;
  t.next_mi_id <- t.next_mi_id + 1;
  t.current <- s;
  t.fl.deadline <- now +. mi_duration t ~rate;
  t.fl.pacing_rate <- rate

(* The current MI's slot, opening a new MI when there is none or the
   current one has run its course. *)
let[@inline] ensure_current_mi t ~meta =
  if t.current < 0 then start_new_mi t ~meta
  else if meta.(0) >= t.fl.deadline then begin
    close_current t ~meta;
    start_new_mi t ~meta
  end;
  t.current

let[@inline] close_if_expired t ~meta =
  if t.current >= 0 && meta.(0) >= t.fl.deadline then close_current t ~meta

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
    ignore (ensure_current_mi t ~meta);
    meta.(3) <- t.fl.next_send

  let on_sent_m t ~meta ~seq ~size =
    let now = meta.(0) in
    let s = ensure_current_mi t ~meta in
    Mi.record_sent t.mis.(s) ~size;
    sm_store t seq s;
    t.fl.next_send <-
      fmax now t.fl.next_send +. (float_of_int size /. t.fl.pacing_rate)

  let on_ack_m t ~meta ~seq ~size:_ =
    let now = meta.(0) and rtt = meta.(2) in
    t.fl.now <- now;
    t.fl.srtt <- (0.875 *. t.fl.srtt) +. (0.125 *. rtt);
    let accepted =
      match t.ack_filter with Some f -> Ack_filter.accept_m f ~meta | None -> true
    in
    close_if_expired t ~meta;
    let s = sm_take t seq in
    if s >= 0 then begin
      Mi.record_ack_m t.mis.(s) ~meta ~accepted;
      check_complete t s
    end

  let on_loss_m t ~meta ~seq ~size:_ =
    let now = meta.(0) in
    t.fl.now <- now;
    close_if_expired t ~meta;
    let s = sm_take t seq in
    if s >= 0 then begin
      Mi.record_loss t.mis.(s);
      check_complete t s
    end
end

include (Calls : Sender.S with type t := t)

let factory config : Proteus_net.Sender.factory =
 fun env -> Sender.pack (module Calls) (create config env)
