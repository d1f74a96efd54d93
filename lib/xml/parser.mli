(** Non-validating XML 1.0 shredder: a {!Sax} consumer.

    Replays {!Sax} events straight into {!Store} append calls (one pass,
    no intermediate tree) — the analogue of MonetDB/XQuery's document
    shredder, and the "shred time" baseline of the Figure 9
    experiments.  The accepted syntax, entity resolution, whitespace
    stripping and error positions are {!Sax}'s: this module owns no
    lexer. *)

type error = Sax.error = {
  line : int;
  col : int;
  offset : int;
  message : string;
}
(** [line]/[col] are 1-based; [offset] is the 0-based absolute byte
    offset of the failure position in the input. *)

val error_to_string : error -> string
(** ["LINE:COL: MESSAGE"]. *)

val parse : ?strip_ws:bool -> string -> (Store.t, error) result
(** [parse s] shreds document [s] into a fresh store.  [strip_ws]
    (default [true]) drops whitespace-only text nodes, as in
    {!Sax.make}.  Prolog comments/PIs are stored under the document
    node; those after the root element are not stored. *)

val parse_exn : ?strip_ws:bool -> string -> Store.t
(** @raise Failure on ill-formed input. *)

val parse_fragment :
  ?strip_ws:bool -> Store.t -> parent:Store.node -> string ->
  (Store.node list, error) result
(** [parse_fragment store ~parent s] parses a sequence of nodes (no
    single-root requirement, see {!Sax.fragment}) and appends them as
    children of [parent]; returns the new top-level node ids in
    document order.  The fragment is checked in full before the first
    append, so on [Error] the store is unchanged.  Used for subtree
    insertion. *)
