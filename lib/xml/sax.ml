(* Streaming pull tokenizer over an incremental byte source: the one XML
   lexer.  [Parser] (whole documents and fragments into a [Store]) and
   [Xvi_ingest] (shred + index in one pass) are both consumers of its
   event stream, so they agree on every lexical rule by construction.

   Names and plain character runs are cut straight out of the window;
   only a run that crosses a refill is gathered in a [Buffer]. *)

type source = unit -> bytes option
type position = { line : int; col : int; offset : int }
type error = { line : int; col : int; offset : int; message : string }

let error_to_string (e : error) = Printf.sprintf "%d:%d: %s" e.line e.col e.message

type event =
  | Start_element of { name : string; attrs : (string * string) list }
  | End_element of string
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of { target : string; body : string }

(* [Decl] (the optional XML declaration), [Prolog], [Content] (inside
   the root element) and [Epilog] are the states of a document;
   [Fragment] is a fragment's one state, at any depth. *)
type mode = Decl | Prolog | Content | Epilog | Fragment

type t = {
  source : source;
  strip_ws : bool;
  (* Window of not-yet-consumed source bytes: [buf.[pos .. len-1]] are
     pending, [base] is the absolute offset of [buf.[0]].  Refilling
     compacts so [base + pos] — the absolute consume offset — is
     invariant across refills. *)
  mutable buf : bytes;
  mutable len : int;
  mutable pos : int;
  mutable base : int;
  mutable src_eof : bool;
  mutable line : int;
  mutable bol : int; (* absolute offset of beginning of current line *)
  mutable stack : string list; (* open element names, innermost first *)
  mutable depth : int;
  mutable mode : mode;
  (* A self-closing tag yields two events from one token. *)
  mutable pending : (event * position) list;
  mutable failed : error option;
}

exception Fail of error

let abs t = t.base + t.pos

let fail t fmt =
  Printf.ksprintf
    (fun message ->
      raise
        (Fail { line = t.line; col = abs t - t.bol + 1; offset = abs t; message }))
    fmt

(* --- window management --- *)

let refill t =
  if t.pos > 0 then begin
    let rem = t.len - t.pos in
    Bytes.blit t.buf t.pos t.buf 0 rem;
    t.base <- t.base + t.pos;
    t.pos <- 0;
    t.len <- rem
  end;
  match t.source () with
  | None -> t.src_eof <- true
  | Some chunk ->
      let n = Bytes.length chunk in
      if t.len + n > Bytes.length t.buf then begin
        let cap = ref (max 64 (2 * Bytes.length t.buf)) in
        while t.len + n > !cap do
          cap := 2 * !cap
        done;
        let grown = Bytes.create !cap in
        Bytes.blit t.buf 0 grown 0 t.len;
        t.buf <- grown
      end;
      Bytes.blit chunk 0 t.buf t.len n;
      t.len <- t.len + n

(* Make [n] bytes available, or return false at end of input: a
   [looking_at] near the end of input is false, never an error. *)
let ensure t n =
  while t.len - t.pos < n && not t.src_eof do
    refill t
  done;
  t.len - t.pos >= n

let at_eof t = not (ensure t 1)
let peek t = Bytes.get t.buf t.pos

let advance t =
  if Bytes.get t.buf t.pos = '\n' then begin
    t.line <- t.line + 1;
    t.bol <- abs t + 1
  end;
  t.pos <- t.pos + 1

let next_ch t =
  if at_eof t then fail t "unexpected end of input";
  let c = peek t in
  advance t;
  c

let expect t c =
  let got = next_ch t in
  if got <> c then fail t "expected %C, found %C" c got

let skip_string t s = String.iter (fun c -> expect t c) s

let looking_at t s =
  let n = String.length s in
  ensure t n
  &&
  let rec eq i = i = n || (Bytes.get t.buf (t.pos + i) = s.[i] && eq (i + 1)) in
  eq 0

let is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let skip_ws t =
  while (not (at_eof t)) && is_ws (peek t) do
    advance t
  done

let position t : position =
  { line = t.line; col = abs t - t.bol + 1; offset = abs t }

(* --- runs: maximal spans of bytes that need no per-byte handling --- *)

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Run scanners: the first window index at or after [i] that ends the
   run, or [t.len].  No run contains '\n', so skipping one needs no
   line bookkeeping. *)
let rec name_end t i =
  if i < t.len && is_name_char (Bytes.get t.buf i) then name_end t (i + 1)
  else i

(* Character data: text runs end at '<', attribute values also at
   their [quote]. *)
let rec chars_end quote t i =
  if i < t.len then
    match Bytes.get t.buf i with
    | '<' | '&' | '\n' -> i
    | c -> if c = quote then i else chars_end quote t (i + 1)
  else i

let text_end = chars_end '<'

(* Consume the run [scan] delimits at the current position.  A run that
   ends inside the window is one [Bytes.sub_string]; one that reaches
   the window's end may go on after a refill, so only then are its
   pieces gathered in a buffer. *)
let take_run t scan =
  let stop = scan t t.pos in
  if stop < t.len || t.src_eof then begin
    let s = Bytes.sub_string t.buf t.pos (stop - t.pos) in
    t.pos <- stop;
    s
  end
  else begin
    let b = Buffer.create 64 in
    let rec go stop =
      Buffer.add_subbytes b t.buf t.pos (stop - t.pos);
      t.pos <- stop;
      if stop = t.len && ensure t 1 then go (scan t t.pos)
    in
    go stop;
    Buffer.contents b
  end

let is_blank s = String.for_all is_ws s

(* --- tokens --- *)

let lex_name t =
  if at_eof t || not (is_name_start (peek t)) then fail t "expected a name";
  take_run t name_end

let add_utf8 buf code =
  if code < 0 || code > 0x10FFFF then invalid_arg "add_utf8"
  else if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* Resolve a reference after '&' has been consumed. *)
let lex_reference t buf =
  if at_eof t then fail t "unterminated entity reference";
  if peek t = '#' then begin
    advance t;
    let hex = (not (at_eof t)) && (peek t = 'x' || peek t = 'X') in
    if hex then advance t;
    let digits = Buffer.create 8 in
    while (not (at_eof t)) && peek t <> ';' do
      Buffer.add_char digits (peek t);
      advance t
    done;
    let digits = Buffer.contents digits in
    expect t ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail t "bad character reference &#%s;" digits
    in
    try add_utf8 buf code
    with Invalid_argument _ -> fail t "character reference out of range"
  end
  else begin
    let name = lex_name t in
    expect t ';';
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "apos" -> Buffer.add_char buf '\''
    | "quot" -> Buffer.add_char buf '"'
    | other -> fail t "unknown entity &%s;" other
  end

let lex_attr_value t =
  let quote = next_ch t in
  if quote <> '"' && quote <> '\'' then fail t "expected quoted attribute value";
  let scan = chars_end quote in
  let run = take_run t scan in
  if (not (at_eof t)) && peek t = quote then begin
    advance t;
    run
  end
  else begin
    let buf = Buffer.create (String.length run + 16) in
    Buffer.add_string buf run;
    let rec go () =
      match next_ch t with
      | c when c = quote -> ()
      | '<' -> fail t "'<' in attribute value"
      | c ->
          (* a newline, a reference, or the byte after one *)
          if c = '&' then lex_reference t buf else Buffer.add_char buf c;
          Buffer.add_string buf (take_run t scan);
          go ()
    in
    go ();
    Buffer.contents buf
  end

(* Character data up to the next '<' or end of input.  Returns [None]
   when the run is whitespace-only and stripped; any entity reference
   marks the run non-blank even if it resolves to whitespace. *)
let lex_text t =
  let run = take_run t text_end in
  if at_eof t || peek t = '<' then
    if t.strip_ws && is_blank run then None else Some run
  else begin
    let buf = Buffer.create (String.length run + 32) in
    Buffer.add_string buf run;
    let only_ws = ref (is_blank run) in
    while (not (at_eof t)) && peek t <> '<' do
      (* a newline, a reference, or the byte after one *)
      (match next_ch t with
      | '&' ->
          only_ws := false;
          lex_reference t buf
      | c -> Buffer.add_char buf c);
      let run = take_run t text_end in
      if not (is_blank run) then only_ws := false;
      Buffer.add_string buf run
    done;
    if !only_ws && t.strip_ws then None else Some (Buffer.contents buf)
  end

(* Bytes up to [close], which is consumed. *)
let lex_until t close =
  let buf = Buffer.create 32 in
  while not (looking_at t close) do
    Buffer.add_char buf (next_ch t)
  done;
  skip_string t close;
  Buffer.contents buf

let lex_comment t =
  (* after "<!--" *)
  let buf = Buffer.create 16 in
  while not (looking_at t "-->") do
    if looking_at t "--" then fail t "'--' inside comment";
    Buffer.add_char buf (next_ch t)
  done;
  skip_string t "-->";
  Buffer.contents buf

let lex_pi t =
  (* after "<?" *)
  let target = lex_name t in
  skip_ws t;
  (target, lex_until t "?>")

let skip_doctype t =
  (* after "<!DOCTYPE" *)
  let depth = ref 1 in
  while !depth > 0 do
    match next_ch t with
    | '<' -> incr depth
    | '>' -> decr depth
    | '[' ->
        let sub = ref 1 in
        while !sub > 0 do
          match next_ch t with
          | '[' -> incr sub
          | ']' -> decr sub
          | _ -> ()
        done
    | _ -> ()
  done

(* --- grammar steps --- *)

(* Attributes then ">" or "/>"; source order preserved. *)
let lex_attributes t =
  let rec go acc =
    skip_ws t;
    if at_eof t then fail t "unterminated start tag"
    else if peek t = '>' then begin
      advance t;
      (List.rev acc, false)
    end
    else if looking_at t "/>" then begin
      skip_string t "/>";
      (List.rev acc, true)
    end
    else begin
      let name = lex_name t in
      skip_ws t;
      expect t '=';
      skip_ws t;
      let value = lex_attr_value t in
      go ((name, value) :: acc)
    end
  in
  go []

(* '<' already consumed; [p] is its position. *)
let start_tag t p =
  let name = lex_name t in
  let attrs, self_closing = lex_attributes t in
  if self_closing then t.pending <- [ (End_element name, p) ]
  else begin
    t.stack <- name :: t.stack;
    t.depth <- t.depth + 1
  end;
  (match t.mode with
  | Prolog -> t.mode <- (if self_closing then Epilog else Content)
  | Decl | Content | Epilog | Fragment -> ());
  (Start_element { name; attrs }, p)

let rec step_prolog t =
  skip_ws t;
  let p = position t in
  if looking_at t "<!--" then begin
    skip_string t "<!--";
    Some (Comment (lex_comment t), p)
  end
  else if looking_at t "<!DOCTYPE" then begin
    skip_string t "<!DOCTYPE";
    skip_doctype t;
    step_prolog t
  end
  else if looking_at t "<?" then begin
    skip_string t "<?";
    let target, body = lex_pi t in
    Some (Pi { target; body }, p)
  end
  else begin
    if at_eof t || peek t <> '<' then fail t "expected root element";
    expect t '<';
    Some (start_tag t p)
  end

(* Content of an element, or a fragment's content at any depth: the
   two differ only at depth 0, where a fragment may end or meet a
   stray end tag. *)
let rec step_content t =
  let p = position t in
  if at_eof t then
    match t.stack with
    | [] -> None
    | _ :: _ -> fail t "unexpected end of input"
  else if peek t <> '<' then
    match lex_text t with Some txt -> Some (Text txt, p) | None -> step_content t
  else
    match if ensure t 2 then Bytes.get t.buf (t.pos + 1) else '<' with
    | '/' -> (
        match t.stack with
        | [] -> fail t "unexpected end-tag in fragment"
        | open_tag :: rest ->
            skip_string t "</";
            let close = lex_name t in
            if not (String.equal close open_tag) then
              fail t "mismatched end tag </%s> for <%s>" close open_tag;
            skip_ws t;
            expect t '>';
            t.stack <- rest;
            t.depth <- t.depth - 1;
            if t.depth = 0 && t.mode = Content then t.mode <- Epilog;
            Some (End_element close, p))
    | '!' when looking_at t "<!--" ->
        skip_string t "<!--";
        Some (Comment (lex_comment t), p)
    | '!' when looking_at t "<![CDATA[" ->
        skip_string t "<![CDATA[";
        let txt = lex_until t "]]>" in
        if String.length txt > 0 then Some (Cdata txt, p) else step_content t
    | '?' ->
        skip_string t "<?";
        let target, body = lex_pi t in
        Some (Pi { target; body }, p)
    | _ ->
        advance t;
        Some (start_tag t p)

(* After the root element: comments and PIs are lexed and checked but
   not reported — no consumer stores trailing misc. *)
let rec step_epilog t =
  skip_ws t;
  if at_eof t then None
  else if looking_at t "<!--" then begin
    skip_string t "<!--";
    ignore (lex_comment t : string);
    step_epilog t
  end
  else if looking_at t "<?" then begin
    skip_string t "<?";
    ignore (lex_pi t : string * string);
    step_epilog t
  end
  else fail t "content after the root element"

(* --- public interface --- *)

let start mode ?(strip_ws = true) source =
  {
    source;
    strip_ws;
    buf = Bytes.create 4096;
    len = 0;
    pos = 0;
    base = 0;
    src_eof = false;
    line = 1;
    bol = 0;
    stack = [];
    depth = 0;
    mode;
    pending = [];
    failed = None;
  }

let make = start Decl
let fragment = start Fragment

let step t =
  match t.mode with
  | Decl ->
      (* The XML declaration is consumed and dropped — including any PI
         whose target merely starts with "xml". *)
      t.mode <- Prolog;
      skip_ws t;
      if looking_at t "<?xml" then begin
        skip_string t "<?";
        ignore (lex_pi t : string * string)
      end;
      step_prolog t
  | Prolog -> step_prolog t
  | Content | Fragment -> step_content t
  | Epilog -> step_epilog t

let next t =
  match t.failed with
  | Some e -> Error e
  | None -> (
      match t.pending with
      | ev :: rest ->
          t.pending <- rest;
          Ok (Some ev)
      | [] -> (
          try Ok (step t)
          with Fail e ->
            t.failed <- Some e;
            Error e))

let consumed t = abs t
let depth t = t.depth

(* Handed out in slices through one reused buffer, so the window never
   holds more than a slice plus the token in progress. *)
let of_string s =
  let slice = 65536 in
  let buf = Bytes.create (min slice (String.length s)) in
  let pos = ref 0 in
  fun () ->
    let n = min slice (String.length s - !pos) in
    if n <= 0 then None
    else begin
      Bytes.blit_string s !pos buf 0 n;
      pos := !pos + n;
      Some (if n = Bytes.length buf then buf else Bytes.sub buf 0 n)
    end

let of_channel ?(chunk_size = 65536) ic =
  let chunk_size = max 1 chunk_size in
  let buf = Bytes.create chunk_size in
  fun () ->
    let n = input ic buf 0 chunk_size in
    if n = 0 then None
    else if n = chunk_size then Some buf
    else Some (Bytes.sub buf 0 n)
