(** Exporters for trace buffers and metric registries.

    Traces export as JSONL (one JSON object per line — [t], [kind],
    [flow], [seq], [a], [b] and an optional [note]) or CSV; the file
    extension picks the format ([.csv] means CSV). Each kind's fields
    read as {!Trace.kind} documents them: [flow] is the runner's flow
    index on packet, MI, rate-decision and utility events (-1 when not
    flow-scoped), and a link's id is an impairment's [seq] but a queue
    sample's [b]. Metric registries
    export as a single JSON document (schema [pcc-proteus-metrics/1]).

    Everything here is hand-rolled string building — no JSON library
    dependency — matching the BENCH_*.json emitters. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val json_float : float -> string
(** Compact float literal; non-finite values map to [null]. *)

(** {1 Traces} *)

val trace_to_file : path:string -> Trace.t -> unit
(** Write (truncate) [path] with every buffered event, oldest first:
    CSV with a header row when the extension is [.csv], JSONL (one
    object per line) otherwise. *)

val warn_dropped : label:string -> Trace.t -> unit
(** Print a warning naming [label] on stderr when the bus overwrote
    events ({!Trace.dropped} > 0), so an export of it silently missing
    its oldest events cannot pass unnoticed. Prints nothing otherwise. *)

(** {1 Metrics} *)

val metrics_to_string : Metrics.t -> string
val metrics_to_file : path:string -> Metrics.t -> unit

(** {1 Re-import} *)

val parse_histogram : name:string -> string -> (float * float * int array) option
(** [parse_histogram ~name json] recovers [(lo, hi, counts)] of the
    named histogram from a {!metrics_to_string} document. Minimal
    scanner for this module's own output — used by round-trip tests and
    small post-processing scripts, not a general JSON parser. *)
