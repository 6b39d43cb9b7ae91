(* CCP-style datapath/control split: congestion control as a per-ACK
   fold over three primitive signals plus an off-datapath control
   handler consuming reports. The adapter at the bottom lowers a
   (program, handler) pair onto Sender.S; see datapath.mli for the cost
   discipline. *)

module Sender = Proteus_net.Sender
module Trace = Proteus_obs.Trace

(* ---------- signals and registers ---------- *)

type signal = Bytes_acked | Rtt_sample | Now

(* Fixed slots in the signals array; the adapter refills all three
   before each fold, so folds index it directly. *)
let ix_bytes_acked = 0
let ix_rtt = 1
let ix_now = 2

let signal_index = function
  | Bytes_acked -> ix_bytes_acked
  | Rtt_sample -> ix_rtt
  | Now -> ix_now

type register = { r_name : string; r_init : float }

let reg r_name r_init = { r_name; r_init }

(* ---------- triggers and programs ---------- *)

type fold = float array -> float array -> unit
type trigger = Every of float | On_loss

type program = {
  p_name : string;
  p_regs : register array;
  p_cwnd : int;
  p_on_ack : fold;
  p_triggers : trigger array;
}

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

(* ---------- reports and handlers ---------- *)

type cause = Interval | Loss_event

type report = {
  mutable rp_time : float;
  mutable rp_cause : cause;
  mutable rp_seq : int;
  rp_regs : float array;
}

type handler = report -> unit

(* ---------- the adapter ---------- *)

type st = {
  prog : program;
  ack_trig : bool; (* some Every trigger, which can fire on an ACK *)
  h : handler;
  regs : float array;
  sigs : float array;
  rep : report; (* reused for every report *)
  trace : Trace.t;
  flow : int; (* the runner's flow index, for trace events *)
  trig_last : float array; (* per-trigger last fire time (Every) *)
  mutable inflight : int;
  mutable rep_count : int;
}

(* Interned so report emission allocates nothing for the note. *)
let note_interval = "dp-report-interval"
let note_loss = "dp-report-loss"

let[@inline never] fire st ~meta cause =
  let now = meta.(0) in
  st.rep.rp_time <- now;
  st.rep.rp_cause <- cause;
  st.rep.rp_seq <- st.rep_count;
  st.rep_count <- st.rep_count + 1;
  st.h st.rep;
  if Trace.enabled st.trace then begin
    let code, note =
      match cause with
      | Interval -> (0.0, note_interval)
      | Loss_event -> (1.0, note_loss)
    in
    Trace.emit st.trace ~time:now ~kind:Trace.Rate_decision ~flow:st.flow
      ~seq:st.rep.rp_seq ~a:code ~b:st.regs.(st.prog.p_cwnd) ~note
  end

let check_triggers st ~meta ~loss =
  let trigs = st.prog.p_triggers in
  let now = meta.(0) in
  for i = 0 to Array.length trigs - 1 do
    match Array.unsafe_get trigs i with
    | Every d ->
        if now -. Array.unsafe_get st.trig_last i >= d then begin
          Array.unsafe_set st.trig_last i now;
          fire st ~meta Interval
        end
    | On_loss -> if loss then fire st ~meta Loss_event
  done

module M = struct
  type t = st

  let name t = t.prog.p_name

  (* The window check reads the cwnd register directly (make_st checks
     its index); a NaN window compares false and blocks (never a NaN
     next-send time). *)
  let next_send_m st ~meta =
    meta.(3) <-
      (if float_of_int st.inflight < Array.unsafe_get st.regs st.prog.p_cwnd
       then meta.(0)
       else infinity)

  let on_sent_m st ~meta:_ ~seq:_ ~size:_ = st.inflight <- st.inflight + 1

  (* The signal stores are unchecked: [sigs] has one slot per signal
     (make_st). *)
  let on_ack_m st ~meta ~seq:_ ~size =
    (* Decrement before the fold, like a window controller's on_ack. *)
    if st.inflight > 0 then st.inflight <- st.inflight - 1;
    let sigs = st.sigs in
    Array.unsafe_set sigs ix_bytes_acked (float_of_int size);
    Array.unsafe_set sigs ix_rtt meta.(2);
    Array.unsafe_set sigs ix_now meta.(0);
    st.prog.p_on_ack st.regs sigs;
    (* An On_loss-only program skips the scan. *)
    if st.ack_trig then check_triggers st ~meta ~loss:false

  let on_loss_m st ~meta ~seq:_ ~size:_ =
    if st.inflight > 0 then st.inflight <- st.inflight - 1;
    check_triggers st ~meta ~loss:true
end

let make_st (env : Sender.env) prog h =
  if prog.p_cwnd < 0 || prog.p_cwnd >= Array.length prog.p_regs then
    invalid_arg
      (Printf.sprintf "Datapath: program %s: cwnd register %d out of range"
         prog.p_name prog.p_cwnd);
  let regs = Array.map (fun r -> r.r_init) prog.p_regs in
  {
    prog;
    ack_trig =
      Array.exists
        (function Every _ -> true | On_loss -> false)
        prog.p_triggers;
    h;
    regs;
    sigs = Array.make 3 0.0;
    rep = { rp_time = 0.0; rp_cause = Interval; rp_seq = 0; rp_regs = regs };
    trace = env.trace;
    flow = env.flow;
    trig_last = Array.make (Array.length prog.p_triggers) 0.0;
    inflight = 0;
    rep_count = 0;
  }

let to_factory ~program ~handler : Sender.factory =
 fun env -> Sender.pack (module M) (make_st env (program env) handler)
