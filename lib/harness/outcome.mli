(** Structured run outcomes: the fallible boundary between one
    simulation run and the sweep around it.

    A supervised run never lets an exception escape raw — every way a
    run can end maps onto one constructor, so sweeps can aggregate,
    journal, retry and report failures without losing the rest of the
    grid. *)

(** Why an over-budget run stopped (enforced inside the event kernel). *)
type budget_kind = Events | Sim_time

type 'a t =
  | Completed of 'a
  | Crashed of { exn : exn; backtrace : Printexc.raw_backtrace }
      (** The run raised: the original exception plus the backtrace
          captured at the catch point. *)
  | Audit_violation of string
      (** The runtime invariant auditor tripped (the [Audit.Violation]
          message). *)
  | Timed_out of { wall_s : float }
      (** The watchdog's wall-clock budget expired while the run was
          still making progress. [wall_s] is the elapsed wall time. *)
  | Stalled of { wall_s : float }
      (** The watchdog saw no sim-time progress for the whole stall
          window: a livelocked (or dead) event loop. *)
  | Budget_exceeded of { kind : budget_kind }
      (** A kernel budget (max events / max sim-time) was exhausted. *)

val completed : 'a t -> 'a option

val label : _ t -> string
(** Stable kebab-case class name: ["completed"], ["crashed"],
    ["audit-violation"], ["timed-out"], ["stalled"],
    ["budget-events"], ["budget-sim-time"]. Used in journals,
    [failed_runs] sections and manifests. *)

val detail : _ t -> string
(** Deterministic one-line detail: the exception or violation message
    for [Crashed] / [Audit_violation], [""] otherwise. Wall-clock
    numbers are deliberately excluded so sweep outputs that embed
    details stay byte-reproducible. *)

val describe : _ t -> string
(** [label], plus [": " ^ detail] when the detail is non-empty. *)
