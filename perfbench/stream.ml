(* The seeded request streams every part of the benchmark replays.

   One [t] is built from the database a durable directory serves (the
   socket run's checker builds it from the same XML, the traced replay
   pins it from its own engine; node ids agree because ingest is
   deterministic). Everything the socket run checks is precomputed
   here, before any timing starts: the expected answer of every probe
   the read mix can draw, and for each answer the nodes a later
   [value] request may target.

   Readers and the update workload's writer share one document, so the
   writer's targets are chosen such that no write can change a reader's
   answer: a target text node, and every ancestor of it, lies outside
   every string and typed probe's answer; written strings carry a '~',
   which no document text or probe value holds, and written numbers sit
   below -1e6, outside every typed probe's range. [value] requests never
   target a node a write can reach. The socket run re-checks this at the
   end by applying every acked write in process and recomputing every
   probe. *)

module Db = Xvi_core.Db
module Store = Xvi_xml.Store
module Prng = Xvi_util.Prng
module Range = Xvi_query.Range

type read =
  | Str of string
  | Typed of string * float option * float option
  | Named of string
  | Value of int
  | Pin

type expected = {
  answer : [ `Nodes of int list | `Text of string ];
  followups : int array;  (** nodes of the answer a [value] may target *)
}

type t = {
  strings : string array;  (** present values, hottest first *)
  zipf_cdf : float array;
  absent : string array;
  typed : (string * float option * float option) array;
  names : string array;
  fallback : int array;  (** [value] targets when the last answer has none *)
  expected : (read, expected) Hashtbl.t;
  str_targets : int array;  (** writer targets holding a string *)
  num_targets : int array;  (** writer targets holding an xs:double *)
  chains : (int, int list) Hashtbl.t;
      (** per string target: the nodes whose string value is exactly the
          target's (see {!chain}) *)
}

let max_answer = 1000
let pool_strings = 4000
let pool_absent = 256
let ranges_per_class = 32
let datetime_ranges = 24
let targets_per_kind = 256
let zipf_s = 1.0

let kind_is k n store = Store.kind store n = k

let leaf_text store n =
  (* the element's only child is a text node *)
  match Store.children store n with
  | [ c ] when kind_is Store.Text c store -> Some c
  | _ -> None

let rec ancestors store n acc =
  match Store.parent store n with
  | None -> acc
  | Some p -> ancestors store p (p :: acc)

let answer_of db = function
  | Str v -> `Nodes (Db.lookup_string db v)
  | Typed (ty, lo, hi) ->
      let range =
        match (lo, hi) with
        | Some lo, Some hi -> Range.between lo hi
        | Some lo, None -> Range.at_least lo
        | None, Some hi -> Range.at_most hi
        | None, None -> Range.any
      in
      `Nodes (Db.lookup_typed db ty range)
  | Named n -> `Nodes (Db.elements_named db n)
  | Value n -> `Text (Store.string_value (Db.store db) n)
  | Pin -> `Nodes []

let sample_ints prng k arr =
  let a = Array.copy arr in
  Prng.shuffle prng a;
  Array.sub a 0 (min k (Array.length a))

(* Distinct short text values, in a seeded order. *)
let candidate_strings prng store =
  let seen = Hashtbl.create 65536 in
  Array.iter
    (fun n ->
      let v = Store.text store n in
      let len = String.length v in
      if len > 0 && len <= 80 && (not (String.contains v '~'))
         && not (Hashtbl.mem seen v)
      then Hashtbl.replace seen v ())
    (Store.text_nodes store);
  let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort compare a;
  Prng.shuffle prng a;
  a

let double_ranges prng db =
  match Db.typed_index db "xs:double" with
  | None -> []
  | Some ti ->
      let nodes = Array.of_list (Xvi_core.Typed_index.range ti) in
      let vals =
        Array.map
          (fun n -> Option.value ~default:0. (Xvi_core.Typed_index.value_of ti n))
          nodes
      in
      let total = Array.length vals in
      if total = 0 then []
      else
        let cls width =
          List.init ranges_per_class (fun _ ->
              let w = max 1 (min width total) in
              let i = Prng.int prng (total - w + 1) in
              ("xs:double", Some vals.(i), Some vals.(i + w - 1)))
        in
        (* point, ~0.1 % and ~1 % of the typed nodes *)
        cls 1 @ cls (max 2 (total / 1000)) @ cls (max 2 (total / 100))

let datetime_ranges_of prng =
  (* seconds since 1970 over 1995..2005 *)
  List.init datetime_ranges (fun _ ->
      let lo = 7.9e8 +. Prng.float prng 3.2e8 in
      ("xs:dateTime", Some lo, Some (lo +. Prng.float prng 3e7)))

let element_names store =
  let counts = Hashtbl.create 128 in
  Store.iter_pre store (fun n ->
      if kind_is Store.Element n store then begin
        let name = Store.name store n in
        Hashtbl.replace counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
      end);
  Hashtbl.fold
    (fun name c acc -> if c <= max_answer then name :: acc else acc)
    counts []
  |> List.sort compare |> Array.of_list

(* The target and each ancestor whose only child leads down to it: the
   nodes whose string value is exactly the target's. *)
let chain_of store node =
  let rec up n acc =
    match Store.parent store n with
    | Some p when kind_is Store.Element p store && Store.children store p = [ n ]
      ->
        up p (p :: acc)
    | _ -> acc
  in
  List.sort compare (up node [ node ])

let build ~seed db =
  let store = Db.store db in
  let prng = Prng.create (seed * 7919 + 17) in
  let expected = Hashtbl.create 8192 in
  let answer r =
    match Hashtbl.find_opt expected r with
    | Some e -> e.answer
    | None ->
        let a = answer_of db r in
        Hashtbl.replace expected r { answer = a; followups = [||] };
        a
  in
  let size = function `Nodes l -> List.length l | `Text _ -> 0 in
  (* string probes whose answers stay small *)
  let strings =
    let cands = candidate_strings prng store in
    let acc = ref [] and k = ref 0 and i = ref 0 in
    while !k < pool_strings && !i < Array.length cands do
      let v = cands.(!i) in
      incr i;
      if size (answer (Str v)) <= max_answer then begin
        acc := v :: !acc;
        incr k
      end
      else Hashtbl.remove expected (Str v)
    done;
    Array.of_list (List.rev !acc)
  in
  let absent =
    Array.init pool_absent (fun i -> Printf.sprintf "absent~%d~%d" seed i)
  in
  Array.iter (fun v -> ignore (answer (Str v))) absent;
  let typed =
    Array.of_list (double_ranges prng db @ datetime_ranges_of prng)
    |> Array.to_list
    |> List.filter (fun (ty, lo, hi) ->
           size (answer (Typed (ty, lo, hi))) <= max_answer)
    |> Array.of_list
  in
  let names = element_names store in
  Array.iter (fun n -> ignore (answer (Named n))) names;
  (* every node a string or typed probe can answer with *)
  let probed = Hashtbl.create 65536 in
  Hashtbl.iter
    (fun r e ->
      match (r, e.answer) with
      | (Str _ | Typed _), `Nodes l ->
          List.iter (fun n -> Hashtbl.replace probed n ()) l
      | _ -> ())
    expected;
  (* writer targets: leaf-element texts no probe can see, nor any
     ancestor of them *)
  let double = Db.typed_index db "xs:double" in
  let nums = ref [] and strs = ref [] in
  Array.iter
    (fun tn ->
      match Store.parent store tn with
      | Some p
        when kind_is Store.Element p store
             && leaf_text store p = Some tn
             && (not (Hashtbl.mem probed tn))
             && not
                  (List.exists (Hashtbl.mem probed) (ancestors store tn [])) ->
          let numeric =
            match double with
            | Some ti -> Xvi_core.Typed_index.value_of ti tn <> None
            | None -> false
          in
          let v = Store.text store tn in
          if numeric then nums := tn :: !nums
          else if String.length v <= 80 && not (String.contains v '~') then
            strs := tn :: !strs
      | _ -> ())
    (Store.text_nodes store);
  let num_targets =
    sample_ints prng targets_per_kind (Array.of_list (List.rev !nums))
  in
  let str_targets =
    sample_ints prng targets_per_kind (Array.of_list (List.rev !strs))
  in
  let volatile = Hashtbl.create 4096 in
  Array.iter
    (fun tn ->
      Hashtbl.replace volatile tn ();
      List.iter (fun a -> Hashtbl.replace volatile a ()) (ancestors store tn []))
    (Array.append num_targets str_targets);
  (* [value] may target texts, attributes and leaf elements no write reaches *)
  let eligible n =
    (not (Hashtbl.mem volatile n))
    && (kind_is Store.Text n store
       || kind_is Store.Attribute n store
       || (kind_is Store.Element n store && leaf_text store n <> None))
  in
  let with_followups =
    Hashtbl.fold
      (fun r e acc ->
        match e.answer with
        | `Nodes l ->
            (r, { e with followups = Array.of_list (List.filter eligible l) })
            :: acc
        | `Text _ -> acc)
      expected []
  in
  List.iter (fun (r, e) -> Hashtbl.replace expected r e) with_followups;
  let fallback =
    Store.text_nodes store |> Array.to_list |> List.filter eligible
    |> Array.of_list |> sample_ints prng 512
  in
  let value_nodes = Hashtbl.create 65536 in
  Hashtbl.iter
    (fun _ e -> Array.iter (fun n -> Hashtbl.replace value_nodes n ()) e.followups)
    expected;
  Array.iter (fun n -> Hashtbl.replace value_nodes n ()) fallback;
  Hashtbl.iter
    (fun n () ->
      Hashtbl.replace expected (Value n)
        { answer = answer_of db (Value n); followups = [||] })
    value_nodes;
  Hashtbl.replace expected Pin { answer = `Nodes []; followups = [||] };
  let zipf_cdf =
    let w = Array.init (Array.length strings) (fun r ->
        1. /. (float_of_int (r + 1) ** zipf_s))
    in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let chains = Hashtbl.create 256 in
  Array.iter (fun n -> Hashtbl.replace chains n (chain_of store n)) str_targets;
  {
    strings;
    zipf_cdf;
    absent;
    typed;
    names;
    fallback;
    expected;
    str_targets;
    num_targets;
    chains;
  }

let expected t r = Hashtbl.find t.expected r

(* --- the read mix --- *)

type reader = { prng : Prng.t; mutable last : int array; mutable count : int }

let reader ~seed ~conn =
  { prng = Prng.create ((seed * 1_000_003) + conn + 1); last = [||]; count = 0 }

(* Repin every [pin_every] requests, so readers beside a writer see new
   epochs as a live client would. *)
let pin_every = 16

let zipf t prng =
  let u = Prng.float prng 1.0 in
  let cdf = t.zipf_cdf in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  t.strings.(!lo)

let next_read t g =
  g.count <- g.count + 1;
  if g.count mod pin_every = 0 then Pin
  else
    let r = Prng.int g.prng 100 in
    let req =
      if r < 40 then
        if Prng.int g.prng 10 = 0 then Str (Prng.choose g.prng t.absent)
        else Str (zipf t g.prng)
      else if r < 70 then
        let ty, lo, hi = Prng.choose g.prng t.typed in
        Typed (ty, lo, hi)
      else if r < 85 then Named (Prng.choose g.prng t.names)
      else if Array.length g.last > 0 then Value (Prng.choose g.prng g.last)
      else Value (Prng.choose g.prng t.fallback)
    in
    (match req with
    | Str _ | Typed _ | Named _ ->
        let e = expected t req in
        if Array.length e.followups > 0 then g.last <- e.followups
    | Value _ | Pin -> ());
    req

let to_request = function
  | Str v -> Xvi_serve.Protocol.Lookup_string v
  | Typed (ty, lo, hi) -> Xvi_serve.Protocol.Lookup_typed (ty, lo, hi)
  | Named n -> Xvi_serve.Protocol.Lookup_named n
  | Value n -> Xvi_serve.Protocol.Value n
  | Pin -> Xvi_serve.Protocol.Pin

let kind_name = function
  | Str _ -> "string"
  | Typed _ -> "typed"
  | Named _ -> "named"
  | Value _ -> "value"
  | Pin -> "pin"

(* Compare a response with the precomputed answer; [None] = correct. *)
let check t req (resp : Xvi_serve.Protocol.response) =
  let e = expected t req in
  match (req, e.answer, resp) with
  | Pin, _, Xvi_serve.Protocol.Epoch _ -> None
  | _, `Nodes want, Xvi_serve.Protocol.Nodes got when got = want -> None
  | _, `Text want, Xvi_serve.Protocol.Value_r got when got = want -> None
  | _, _, resp ->
      Some
        (Printf.sprintf "%s: unexpected %s" (kind_name req)
           (let s = Xvi_serve.Protocol.encode_response resp in
            if String.length s > 120 then String.sub s 0 120 ^ "..." else s))

(* --- writes --- *)

type writer = { wprng : Prng.t; tag : string; mutable k : int }

let writer ~seed ~tag =
  { wprng = Prng.create ((seed * 104_729) + Hashtbl.hash tag); tag; k = 0 }

(* One commit of the update workload: 1-3 distinct text nodes, each
   either a number below -1e6 on a typed-indexed node (the SCT path) or
   a '~'-tagged string. *)
let next_commit t w =
  let k = w.k in
  w.k <- k + 1;
  let n = 1 + Prng.int w.wprng 3 in
  let rec pick j acc =
    if j = n then List.rev acc
    else
      let numeric = Prng.bool w.wprng in
      let node =
        Prng.choose w.wprng (if numeric then t.num_targets else t.str_targets)
      in
      if List.mem_assoc node acc then pick j acc
      else
        let v =
          if numeric then Printf.sprintf "-%d.25" (1_000_000 + (k * 4) + j)
          else Printf.sprintf "%s~%d~%d" w.tag k j
        in
        pick (j + 1) ((node, v) :: acc)
  in
  pick 0 []

(* One single-node string commit (the replicate workload): its value is
   unique, so a follower's [lookup-string] finds exactly the node's
   single-child chain. *)
let next_single t w =
  let k = w.k in
  w.k <- k + 1;
  (Prng.choose w.wprng t.str_targets, Printf.sprintf "%s~%d" w.tag k)

let chain t node = Hashtbl.find t.chains node

(* Apply acked writes to [db] (a fresh build of the document [t] was
   built from) and recompute every probe: [None] if no read answer moved
   (the stream's disjointness holds). *)
let recheck_after_writes t db writes =
  List.iter (fun (n, v) -> Db.update_text db n v) writes;
  Hashtbl.fold
    (fun r e acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match r with
          | Pin -> None
          | _ ->
              if answer_of db r = e.answer then None
              else
                Some
                  (Printf.sprintf "write set moved a %s probe's answer"
                     (kind_name r))))
    t.expected None
