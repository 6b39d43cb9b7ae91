(** Minimal s-expression reader/printer for the scenario language.

    Atoms are bare tokens or double-quoted strings (supporting the
    [backslash, quote, n, t] escapes); [;] comments run to end of line. Errors
    carry line/column positions so malformed scenario files fail with a
    pointable message. *)

type t = Atom of string | List of t list

val parse_string : string -> (t list, string) result
(** All top-level forms in the input, or a positioned error. *)

val parse_file : string -> (t list, string) result
(** Reads and parses a whole file; IO errors surface as [Error]. *)

val to_string : t -> string
(** Canonical single-line printing; atoms needing quotes are quoted.
    [parse_string (to_string t)] yields [t] back. *)
