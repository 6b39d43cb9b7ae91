(* CCP-style datapath/control split: congestion control as a fold
   program over per-ACK primitive signals plus an off-datapath control
   handler consuming reports. The adapter at the bottom lowers any
   (program, handler) pair onto Sender.S; see datapath.mli for the cost
   discipline. *)

module Sender = Proteus_net.Sender
module Trace = Proteus_obs.Trace

(* ---------- signals ---------- *)

type signal =
  | Bytes_acked
  | Bytes_misordered
  | Lost_sample
  | Rtt_sample_us
  | Rtt_sample
  | Rate_outgoing
  | Rate_incoming
  | Inflight
  | Now

(* Fixed slots in the signals array; the adapter refills the array
   before each fold, so folds index it directly. *)
let ix_bytes_acked = 0
let ix_bytes_misordered = 1
let ix_lost = 2
let ix_rtt_us = 3
let ix_rtt = 4
let ix_rate_out = 5
let ix_rate_in = 6
let ix_inflight = 7
let ix_now = 8
let num_signals = 9

let signal_index = function
  | Bytes_acked -> ix_bytes_acked
  | Bytes_misordered -> ix_bytes_misordered
  | Lost_sample -> ix_lost
  | Rtt_sample_us -> ix_rtt_us
  | Rtt_sample -> ix_rtt
  | Rate_outgoing -> ix_rate_out
  | Rate_incoming -> ix_rate_in
  | Inflight -> ix_inflight
  | Now -> ix_now

let all_signals =
  [
    Bytes_acked;
    Bytes_misordered;
    Lost_sample;
    Rtt_sample_us;
    Rtt_sample;
    Rate_outgoing;
    Rate_incoming;
    Inflight;
    Now;
  ]

let signal_name = function
  | Bytes_acked -> "bytes_acked"
  | Bytes_misordered -> "bytes_misordered"
  | Lost_sample -> "lost_sample"
  | Rtt_sample_us -> "rtt_sample_us"
  | Rtt_sample -> "rtt_sample"
  | Rate_outgoing -> "rate_outgoing"
  | Rate_incoming -> "rate_incoming"
  | Inflight -> "inflight"
  | Now -> "now"

(* ---------- registers ---------- *)

type register = { r_name : string; r_init : float; r_volatile : bool }

let reg ?(volatile = false) r_name r_init =
  { r_name; r_init; r_volatile = volatile }

(* ---------- expressions ---------- *)

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

type binop = Add | Sub | Mul | Div | Min | Max
type cmp = Lt | Le | Gt | Ge | Eq

type expr =
  | Sig of signal
  | Reg of int
  | Const of float
  | Bin of binop * expr * expr
  | Ite of cmp * expr * expr * expr * expr

let cmp_holds c x y =
  match c with
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Eq -> x = y

let rec eval e ~regs ~sigs =
  match e with
  | Sig s -> sigs.(signal_index s)
  | Reg i -> regs.(i)
  | Const c -> c
  | Bin (op, a, b) -> (
      let x = eval a ~regs ~sigs and y = eval b ~regs ~sigs in
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Min -> fmin x y
      | Max -> fmax x y)
  | Ite (c, a, b, t, f) ->
      if cmp_holds c (eval a ~regs ~sigs) (eval b ~regs ~sigs) then
        eval t ~regs ~sigs
      else eval f ~regs ~sigs

(* Signal sets are bit masks over the slots. *)
let[@inline] bit ix = 1 lsl ix
let mask_of_signals = List.fold_left (fun m s -> m lor bit (signal_index s)) 0

let rec expr_mask acc = function
  | Sig s -> acc lor bit (signal_index s)
  | Reg _ | Const _ -> acc
  | Bin (_, a, b) -> expr_mask (expr_mask acc a) b
  | Ite (_, a, b, t, e) ->
      expr_mask (expr_mask (expr_mask (expr_mask acc a) b) t) e

let expr_signals e =
  let m = expr_mask 0 e in
  List.filter (fun s -> m land bit (signal_index s) <> 0) all_signals

type fold = float array -> float array -> unit

let fold_of_assigns assigns regs sigs =
  List.iter (fun (dst, e) -> regs.(dst) <- eval e ~regs ~sigs) assigns

(* ---------- triggers and programs ---------- *)

type trigger = Every of float | On_loss | When of cmp * expr * expr

type program = {
  p_name : string;
  p_regs : register array;
  p_cwnd : int;
  p_reads : signal list;
  p_on_ack : fold;
  p_on_loss : fold;
  p_triggers : trigger array;
}

let rec max_reg = function
  | Sig _ | Const _ -> -1
  | Reg i -> i
  | Bin (_, a, b) -> max (max_reg a) (max_reg b)
  | Ite (_, a, b, t, e) ->
      max (max (max_reg a) (max_reg b)) (max (max_reg t) (max_reg e))

let rec min_reg = function
  | Sig _ | Const _ -> 0
  | Reg i -> i
  | Bin (_, a, b) -> min (min_reg a) (min_reg b)
  | Ite (_, a, b, t, e) ->
      min (min (min_reg a) (min_reg b)) (min (min_reg t) (min_reg e))

let validate_program p =
  let n = Array.length p.p_regs in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_expr what e =
    if max_reg e >= n || min_reg e < 0 then
      err "program %s: %s references a register out of range (have %d)"
        p.p_name what n
    else Ok ()
  in
  if n = 0 then err "program %s: at least one register is required" p.p_name
  else if p.p_cwnd < 0 || p.p_cwnd >= n then
    err "program %s: cwnd register %d out of range (have %d)" p.p_name p.p_cwnd
      n
  else begin
    (* Register files are small: a pairwise scan, lengths first, costs
       less than hashing on the per-flow creation path. *)
    let regs = p.p_regs in
    let dup = ref None in
    Array.iteri
      (fun i r ->
        let name = r.r_name in
        if String.length name = 0 then
          dup := Some (err "program %s: empty register name" p.p_name);
        for j = 0 to i - 1 do
          let other = regs.(j).r_name in
          if String.length other = String.length name && String.equal other name
          then dup := Some (err "program %s: duplicate register %S" p.p_name name)
        done)
      regs;
    match !dup with
    | Some e -> e
    | None ->
        Array.fold_left
          (fun acc tr ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match tr with
                | Every d ->
                    if Float.is_finite d && d > 0.0 then Ok ()
                    else err "program %s: Every interval must be positive" p.p_name
                | On_loss -> Ok ()
                | When (_, a, b) -> (
                    match check_expr "a trigger predicate" a with
                    | Error _ as e -> e
                    | Ok () -> check_expr "a trigger predicate" b)))
          (Ok ()) p.p_triggers
  end

let register_index p name =
  let n = Array.length p.p_regs in
  let rec go i =
    if i >= n then None
    else if p.p_regs.(i).r_name = name then Some i
    else go (i + 1)
  in
  go 0

let with_overrides ?interval ?(consts = []) p =
  let regs =
    if consts = [] then p.p_regs
    else begin
      let a = Array.copy p.p_regs in
      List.iter
        (fun (name, v) ->
          match register_index p name with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Datapath.with_overrides: unknown register %S in %s" name
                   p.p_name)
          | Some i -> a.(i) <- { (a.(i)) with r_init = v })
        consts;
      a
    end
  in
  let triggers =
    match interval with
    | None -> p.p_triggers
    | Some d ->
        if (not (Float.is_finite d)) || d <= 0.0 then
          invalid_arg "Datapath.with_overrides: interval must be positive";
        Array.append p.p_triggers [| Every d |]
  in
  { p with p_regs = regs; p_triggers = triggers }

(* ---------- reports, actions, handlers ---------- *)

type cause = Interval | Loss_event | Predicate

type report = {
  mutable rp_time : float;
  mutable rp_cause : cause;
  mutable rp_seq : int;
  rp_regs : float array;
}

type actions = { mutable a_cwnd : float; mutable a_rate_pps : float }

type handler = report -> actions -> unit

(* ---------- the adapter ---------- *)

(* Adapter scalars live in [fl] (a float array, so mutation is an
   unboxed store; the record itself is mixed and a mutable float field
   here would box on every write). *)
let af_inflight = 0 (* packets in flight, integral float *)
let af_pace = 1 (* earliest next paced transmit; -inf = unpaced *)
let af_rate = 2 (* pacing rate, packets/s; 0 = disabled *)
let af_sent = 3 (* cumulative bytes sent *)
let af_acked = 4 (* cumulative bytes ACKed (duplicates included) *)
let af_first = 5 (* time of first transmission; NaN = none yet *)

type st = {
  prog : program;
  reads : int;
      (* signal slots refilled per event: the declared reads plus the
         When triggers' *)
  ack_trig : bool; (* some trigger (Every/When) can fire on an ACK *)
  h : handler;
  regs : float array;
  sigs : float array;
  rep : report; (* reused for every report *)
  act : actions; (* reused; fields reset to NaN after application *)
  trace : Trace.t;
  flow : int; (* the runner's flow index, for trace events *)
  fl : float array;
  trig_last : float array; (* per-trigger last fire time (Every) *)
  mutable last_seq : int;
  mutable rep_count : int;
}

(* Interned so report emission allocates nothing for the note. *)
let note_interval = "dp-report-interval"
let note_loss = "dp-report-loss"
let note_pred = "dp-report-when"

let[@inline never] fire st ~meta cause =
  let now = meta.(0) in
  st.rep.rp_time <- now;
  st.rep.rp_cause <- cause;
  st.rep.rp_seq <- st.rep_count;
  st.rep_count <- st.rep_count + 1;
  st.h st.rep st.act;
  if Trace.enabled st.trace then begin
    let code, note =
      match cause with
      | Interval -> (0.0, note_interval)
      | Loss_event -> (1.0, note_loss)
      | Predicate -> (2.0, note_pred)
    in
    let cw =
      if Float.is_nan st.act.a_cwnd then st.regs.(st.prog.p_cwnd)
      else st.act.a_cwnd
    in
    Trace.emit st.trace ~time:now ~kind:Trace.Rate_decision ~flow:st.flow
      ~seq:st.rep.rp_seq ~a:code ~b:cw ~note
  end

(* Runs once per event that fired at least one report: volatile
   registers reset to their initial values, then the handler's
   installs are applied (so an installed cwnd survives the reset even
   if the cwnd register is volatile). *)
let[@inline never] after_reports st =
  let regs = st.regs and spec = st.prog.p_regs in
  for r = 0 to Array.length spec - 1 do
    let s = Array.unsafe_get spec r in
    if s.r_volatile then Array.unsafe_set regs r s.r_init
  done;
  let cw = st.act.a_cwnd in
  if not (Float.is_nan cw) then begin
    regs.(st.prog.p_cwnd) <- cw;
    st.act.a_cwnd <- Float.nan
  end;
  let rp = st.act.a_rate_pps in
  if not (Float.is_nan rp) then begin
    let fl = st.fl in
    if Float.is_finite rp && rp > 0.0 then fl.(af_rate) <- rp
    else begin
      fl.(af_rate) <- 0.0;
      fl.(af_pace) <- neg_infinity
    end;
    st.act.a_rate_pps <- Float.nan
  end

let check_triggers st ~meta ~loss =
  let trigs = st.prog.p_triggers in
  let n = Array.length trigs in
  if n > 0 then begin
    let before = st.rep_count in
    let now = meta.(0) in
    for i = 0 to n - 1 do
      match Array.unsafe_get trigs i with
      | Every d ->
          if now -. Array.unsafe_get st.trig_last i >= d then begin
            Array.unsafe_set st.trig_last i now;
            fire st ~meta Interval
          end
      | On_loss -> if loss then fire st ~meta Loss_event
      | When (c, a, b) ->
          if
            cmp_holds c
              (eval a ~regs:st.regs ~sigs:st.sigs)
              (eval b ~regs:st.regs ~sigs:st.sigs)
          then fire st ~meta Predicate
    done;
    if st.rep_count <> before then after_reports st
  end

(* The per-event signal refills below store unchecked: [sigs] has
   [num_signals] slots (make_st) and every ix_* is a constant below
   that. Each store is guarded by its bit in [reads]: a slot nobody
   reads is never refilled and keeps the NaN it was created with.

   Rate and inflight signals: prefer the runner-supplied slots when the
   caller's meta array carries them (see Sender.S, slots 4 and 5); any
   4-slot caller (the float-argument Sender calls) falls back to the
   adapter-side estimates. *)
let b_rates = bit ix_rate_out lor bit ix_rate_in

let[@inline] fill_rates st ~meta =
  let fl = st.fl and sigs = st.sigs and r = st.reads in
  let now = meta.(0) in
  if r land b_rates <> 0 then begin
    let elapsed = now -. Array.unsafe_get fl af_first in
    if elapsed > 0.0 then begin
      let inv = 1.0 /. elapsed in
      if r land bit ix_rate_out <> 0 then
        Array.unsafe_set sigs ix_rate_out (Array.unsafe_get fl af_sent *. inv);
      if r land bit ix_rate_in <> 0 then begin
        let delivered =
          if Array.length meta > 5 then meta.(5)
          else Array.unsafe_get fl af_acked
        in
        Array.unsafe_set sigs ix_rate_in (delivered *. inv)
      end
    end
    else begin
      if r land bit ix_rate_out <> 0 then
        Array.unsafe_set sigs ix_rate_out 0.0;
      if r land bit ix_rate_in <> 0 then Array.unsafe_set sigs ix_rate_in 0.0
    end
  end;
  if r land bit ix_inflight <> 0 then
    Array.unsafe_set sigs ix_inflight
      (if Array.length meta > 4 then meta.(4)
       else Array.unsafe_get fl af_inflight);
  if r land bit ix_now <> 0 then Array.unsafe_set sigs ix_now now

module M = struct
  type t = st

  let name t = t.prog.p_name

  (* The window check reads the cwnd register directly; a NaN window
     compares false and blocks (never a NaN next-send time). Pacing only
     engages once a handler installed a positive rate. *)
  let next_send_m st ~meta =
    let fl = st.fl in
    meta.(3) <-
      (if
         Array.unsafe_get fl af_inflight
         < Array.unsafe_get st.regs st.prog.p_cwnd
       then begin
         let now = meta.(0) in
         let p = Array.unsafe_get fl af_pace in
         if p > now then p else now
       end
       else infinity)

  let on_sent_m st ~meta ~seq:_ ~size =
    let fl = st.fl in
    Array.unsafe_set fl af_inflight (Array.unsafe_get fl af_inflight +. 1.0);
    Array.unsafe_set fl af_sent
      (Array.unsafe_get fl af_sent +. float_of_int size);
    if Float.is_nan (Array.unsafe_get fl af_first) then
      Array.unsafe_set fl af_first meta.(0);
    let r = Array.unsafe_get fl af_rate in
    if r > 0.0 then
      Array.unsafe_set fl af_pace
        (fmax meta.(0) (Array.unsafe_get fl af_pace) +. (1.0 /. r))

  let on_ack_m st ~meta ~seq ~size =
    let fl = st.fl and sigs = st.sigs and r = st.reads in
    (* Decrement before the fold, like a window controller's on_ack. *)
    Array.unsafe_set fl af_inflight
      (fmax 0.0 (Array.unsafe_get fl af_inflight -. 1.0));
    let szf = float_of_int size in
    Array.unsafe_set fl af_acked (Array.unsafe_get fl af_acked +. szf);
    if r land bit ix_bytes_acked <> 0 then
      Array.unsafe_set sigs ix_bytes_acked szf;
    if r land bit ix_bytes_misordered <> 0 then
      Array.unsafe_set sigs ix_bytes_misordered
        (if seq < st.last_seq then szf else 0.0);
    if seq > st.last_seq then st.last_seq <- seq;
    if r land bit ix_lost <> 0 then Array.unsafe_set sigs ix_lost 0.0;
    let rtt = meta.(2) in
    if r land bit ix_rtt <> 0 then Array.unsafe_set sigs ix_rtt rtt;
    if r land bit ix_rtt_us <> 0 then
      Array.unsafe_set sigs ix_rtt_us (rtt *. 1e6);
    fill_rates st ~meta;
    st.prog.p_on_ack st.regs sigs;
    (* Only Every and When triggers can fire on an ACK; a program whose
       triggers are all On_loss skips the scan. *)
    if st.ack_trig then check_triggers st ~meta ~loss:false

  let on_loss_m st ~meta ~seq:_ ~size:_ =
    let fl = st.fl and sigs = st.sigs and r = st.reads in
    Array.unsafe_set fl af_inflight
      (fmax 0.0 (Array.unsafe_get fl af_inflight -. 1.0));
    if r land bit ix_bytes_acked <> 0 then
      Array.unsafe_set sigs ix_bytes_acked 0.0;
    if r land bit ix_bytes_misordered <> 0 then
      Array.unsafe_set sigs ix_bytes_misordered 0.0;
    if r land bit ix_lost <> 0 then Array.unsafe_set sigs ix_lost 1.0;
    (* rtt slots keep the previous ACK's sample (stale; documented). *)
    fill_rates st ~meta;
    st.prog.p_on_loss st.regs sigs;
    check_triggers st ~meta ~loss:true
end

let make_st (env : Sender.env) prog h =
  (match validate_program prog with
  | Ok () -> ()
  | Error e -> failwith ("Datapath: " ^ e));
  let n = Array.length prog.p_regs in
  let regs = Array.make n 0.0 in
  for i = 0 to n - 1 do
    regs.(i) <- prog.p_regs.(i).r_init
  done;
  let reads =
    Array.fold_left
      (fun m -> function
        | When (_, a, b) -> expr_mask (expr_mask m a) b
        | Every _ | On_loss -> m)
      (mask_of_signals prog.p_reads) prog.p_triggers
  in
  (* Read slots start at 0 (what a loss before the first ACK leaves in
     the RTT slots); the rest hold NaN for good. *)
  let sigs = Array.make num_signals Float.nan in
  for i = 0 to num_signals - 1 do
    if reads land bit i <> 0 then sigs.(i) <- 0.0
  done;
  {
    prog;
    reads;
    ack_trig =
      Array.exists
        (function Every _ | When _ -> true | On_loss -> false)
        prog.p_triggers;
    h;
    regs;
    sigs;
    rep = { rp_time = 0.0; rp_cause = Interval; rp_seq = 0; rp_regs = regs };
    act = { a_cwnd = Float.nan; a_rate_pps = Float.nan };
    trace = env.trace;
    flow = env.flow;
    fl = [| 0.0; neg_infinity; 0.0; 0.0; 0.0; Float.nan |];
    trig_last = Array.make (Array.length prog.p_triggers) 0.0;
    last_seq = -1;
    rep_count = 0;
  }

let to_factory ~program ~handler : Sender.factory =
 fun env -> Sender.pack (module M) (make_st env (program env) handler)
