(* Structured run outcomes (see outcome.mli). *)

type budget_kind = Events | Sim_time

type 'a t =
  | Completed of 'a
  | Crashed of { exn : exn; backtrace : Printexc.raw_backtrace }
  | Audit_violation of string
  | Timed_out of { wall_s : float }
  | Stalled of { wall_s : float }
  | Budget_exceeded of { kind : budget_kind }

let completed = function Completed v -> Some v | _ -> None

let label = function
  | Completed _ -> "completed"
  | Crashed _ -> "crashed"
  | Audit_violation _ -> "audit-violation"
  | Timed_out _ -> "timed-out"
  | Stalled _ -> "stalled"
  | Budget_exceeded { kind = Events } -> "budget-events"
  | Budget_exceeded { kind = Sim_time } -> "budget-sim-time"

let detail = function
  | Crashed { exn; _ } -> Printexc.to_string exn
  | Audit_violation msg -> msg
  | Completed _ | Timed_out _ | Stalled _ | Budget_exceeded _ -> ""

let describe o =
  match detail o with "" -> label o | d -> label o ^ ": " ^ d
