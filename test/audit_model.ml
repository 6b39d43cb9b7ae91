(* Reference model of the auditor's flow-level checks: the clocks, the
   counters and a [Hashtbl] in-flight set, step for step in the order
   [Audit] checks them (and mutates state before raising). Model-based
   tests run the same event sequence through both and compare every
   accept-or-raise decision and the outstanding count. Event times fed
   to the model are finite. *)

exception Violation

type flow = {
  outstanding : (int, int) Hashtbl.t;  (* seq -> size *)
  mutable sent : int;
  mutable acked : int;
  mutable lost : int;
  mutable acked_bytes : int;
  mutable last_time : float;
}

type t = { flows : flow array; mutable last_global_time : float }

let create ~flows =
  {
    flows =
      Array.init flows (fun _ ->
          {
            outstanding = Hashtbl.create 64;
            sent = 0;
            acked = 0;
            lost = 0;
            acked_bytes = 0;
            last_time = neg_infinity;
          });
    last_global_time = neg_infinity;
  }

let record t ~time =
  if time < t.last_global_time -. 1e-9 then raise Violation;
  t.last_global_time <- Float.max t.last_global_time time

let flow t flow =
  if flow < 0 || flow >= Array.length t.flows then raise Violation
  else t.flows.(flow)

let flow_clock fs ~now =
  if now < fs.last_time -. 1e-9 then raise Violation;
  fs.last_time <- Float.max fs.last_time now

let check_accounting fs =
  let out = fs.sent - fs.acked - fs.lost in
  if out < 0 then raise Violation;
  if Hashtbl.length fs.outstanding <> out then raise Violation

let consume fs ~seq =
  match Hashtbl.find_opt fs.outstanding seq with
  | None -> raise Violation
  | Some size ->
      Hashtbl.remove fs.outstanding seq;
      size

let on_sent t ~flow:id ~seq ~size ~now =
  record t ~time:now;
  let fs = flow t id in
  if Hashtbl.mem fs.outstanding seq then raise Violation;
  Hashtbl.replace fs.outstanding seq size;
  fs.sent <- fs.sent + 1;
  check_accounting fs

let on_ack t ~flow:id ~seq ~size ~now =
  record t ~time:now;
  let fs = flow t id in
  flow_clock fs ~now;
  if consume fs ~seq <> size then raise Violation;
  fs.acked <- fs.acked + 1;
  let prev = fs.acked_bytes in
  fs.acked_bytes <- fs.acked_bytes + size;
  if fs.acked_bytes < prev then raise Violation;
  check_accounting fs

let on_dup_ack t ~flow:id ~seq ~now =
  record t ~time:now;
  let fs = flow t id in
  flow_clock fs ~now;
  if Hashtbl.mem fs.outstanding seq then raise Violation

let on_loss t ~flow:id ~seq ~size ~now =
  record t ~time:now;
  let fs = flow t id in
  flow_clock fs ~now;
  if consume fs ~seq <> size then raise Violation;
  fs.lost <- fs.lost + 1;
  check_accounting fs

let outstanding t =
  Array.fold_left (fun n fs -> n + Hashtbl.length fs.outstanding) 0 t.flows
