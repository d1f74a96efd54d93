(** Streaming pull parser over an incremental byte source: the one XML
    lexer.

    [Sax] emits a document as a sequence of events instead of a
    materialized {!Store.t}.  Every shredder is a consumer of it:
    {!Parser} replays the events into [Store] append calls, and
    [Xvi_ingest] shreds and indexes in one pass with a working set
    bounded by the element depth, not the document size.

    Supported: elements, attributes (single- or double-quoted),
    character data, the five predefined entities, decimal and
    hexadecimal character references, CDATA sections, comments,
    processing instructions, an XML declaration, and a DOCTYPE
    declaration (skipped, including an internal subset).  Namespaces
    are not resolved; qualified names are kept as opaque strings.

    Chunk boundaries are invisible: the same bytes split any way at
    all produce the same event sequence. *)

type source = unit -> bytes option
(** A pull source: [Some chunk] of fresh bytes (the parser copies what
    it needs; the caller may reuse the buffer), or [None] at end of
    input.  Empty chunks are allowed and skipped. *)

type position = { line : int; col : int; offset : int }
(** 1-based line/column and 0-based absolute byte offset of the first
    byte of the event's token ('<' of a tag, first character of a text
    run). *)

type error = { line : int; col : int; offset : int; message : string }
(** Where and why the input was rejected: [line]/[col] are 1-based,
    [offset] is the 0-based absolute byte offset of the failure
    position.  Identical however the input was chunked. *)

val error_to_string : error -> string
(** ["LINE:COL: MESSAGE"] — the byte offset is available on the record
    for callers that want it (seeking in a stream, editor spans). *)

type event =
  | Start_element of { name : string; attrs : (string * string) list }
      (** Attributes in source order, entity references resolved.  A
          self-closing tag emits [Start_element] immediately followed
          by [End_element]. *)
  | End_element of string  (** Tag name, matched against the start tag. *)
  | Text of string
      (** Character data with entities resolved.  Whitespace-only runs
          are dropped under [~strip_ws:true]; a run containing any
          entity reference is kept even if it resolves to
          whitespace. *)
  | Cdata of string
      (** A non-empty CDATA section.  Reported separately from [Text]
          (never merged with adjacent character data); consumers store
          it as a text node. *)
  | Comment of string
  | Pi of { target : string; body : string }
      (** Processing instruction.  The leading XML declaration is
          consumed and not reported.  Prolog comments/PIs are
          reported; comments/PIs after the root element are lexed and
          checked but not reported. *)

type t

val make : ?strip_ws:bool -> source -> t
(** [make source] starts parsing a document: a prolog, exactly one
    root element, then only comments, PIs and whitespace.  [strip_ws]
    (default [true]) drops whitespace-only text runs — boundary
    whitespace stripping, the common XML-database shredding default;
    set it to [false] to keep mixed-content whitespace exactly. *)

val fragment : ?strip_ws:bool -> source -> t
(** [fragment source] starts parsing a fragment: a sequence of
    content items (no prolog, no single-root requirement) that ends
    cleanly at end of input with every element closed.  An end tag at
    depth 0 fails with ["unexpected end-tag in fragment"]. *)

val next : t -> ((event * position) option, error) result
(** Pull the next event.  [Ok None] is the clean end of input (for a
    document, only after the root element closed and any trailing misc
    was consumed).  After an [Error] the parser is stuck: subsequent
    calls return the same error. *)

val consumed : t -> int
(** Absolute count of source bytes fully tokenized so far.  At every
    event boundary this is an exact cut point: feeding the first
    [consumed t] bytes followed by the rest of the input (through any
    chunking) reproduces the remaining event stream. *)

val depth : t -> int
(** Number of currently open elements. *)

val of_string : string -> source
(** The whole document, handed out in 64 KiB slices. *)

val of_channel : ?chunk_size:int -> in_channel -> source
(** Read [chunk_size] (default 64 KiB) bytes at a time. *)
