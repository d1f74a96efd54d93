(* The query layer's streaming merges at their edges: empty cursors,
   hash-bucket false positives, tombstoned Within scopes, Not over the
   whole document, and document-order stability of Or merges once
   structural inserts make node-id order diverge from document order.
   Each Db-level answer is cross-checked against the index-free oracle
   where one exists. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Parser = Xvi_xml.Parser
module Ir = Db.Ir
module Cursor = Xvi_query.Cursor
module Oracle = Xvi_check.Oracle
module Prng = Xvi_util.Prng

let doc =
  "<lib><shelf id=\"s1\"><book><title>Dune</title><price>42</price></book>\
   <book><title>VALIS</title><price>7.5</price></book></shelf>\
   <shelf id=\"s2\"><book><title>Dune</title><price>11</price></book>\
   <note>empty shelf soon</note></shelf></lib>"

let mkdb ?config () = Db.of_store ?config (Parser.parse_exn doc)

(* --- cursor primitives --- *)

let drain c = Cursor.to_list c

let test_empty_cursors () =
  Alcotest.(check (list int)) "empty" [] (drain Cursor.empty);
  Alcotest.(check (list int)) "union []" [] (drain (Cursor.union []));
  Alcotest.(check (list int)) "inter of empties" []
    (drain (Cursor.inter [ Cursor.empty; Cursor.empty ]));
  Alcotest.(check (list int)) "inter with one empty input" []
    (drain
       (Cursor.inter [ Cursor.of_sorted_list [ 1; 2; 3 ]; Cursor.empty ]));
  Alcotest.(check (list int)) "union absorbs empties" [ 1; 2; 3 ]
    (drain
       (Cursor.union
          [ Cursor.empty; Cursor.of_sorted_list [ 1; 2; 3 ]; Cursor.empty ]));
  (* a drained cursor stays drained: None is sticky *)
  let c = Cursor.of_sorted_list [ 7 ] in
  Alcotest.(check (option int)) "first" (Some 7) (c ());
  Alcotest.(check (option int)) "exhausted" None (c ());
  Alcotest.(check (option int)) "sticky" None (c ())

let test_merge_dedup () =
  (* overlapping inputs and duplicate entries merge to one strictly
     ascending stream *)
  Alcotest.(check (list int)) "union dedups" [ 1; 2; 3; 4; 5 ]
    (drain
       (Cursor.union
          [
            Cursor.of_sorted_list [ 1; 2; 2; 4 ];
            Cursor.of_sorted_list [ 2; 3; 4; 5 ];
          ]));
  Alcotest.(check (list int)) "inter leapfrogs" [ 2; 9 ]
    (drain
       (Cursor.inter
          [
            Cursor.of_sorted_list [ 2; 4; 9 ];
            Cursor.of_sorted_list [ 1; 2; 5; 9; 12 ];
            Cursor.of_sorted_list [ 0; 2; 3; 9 ];
          ]))

(* --- hash-bucket false positives --- *)

let test_collision_no_false_positives () =
  (* engineered same-hash strings in one document: the equality cursor
     must filter the shared bucket down to exact matches, and a
     disjunction over both must not duplicate any node even though both
     branches walk the same bucket *)
  let rng = Prng.create 99 in
  let tg = Xvi_workload.Text_gen.create rng in
  let urls = Xvi_workload.Text_gen.colliding_urls tg 3 in
  let a = List.nth urls 0 and b = List.nth urls 1 in
  Alcotest.(check bool) "hashes collide" true
    (Xvi_core.Hash.equal (Xvi_core.Hash.hash a) (Xvi_core.Hash.hash b));
  let xml =
    "<d>"
    ^ String.concat ""
        (List.map (fun u -> "<u>" ^ u ^ "</u>") (urls @ [ a ]))
    ^ "</d>"
  in
  let db = Db.of_store (Parser.parse_exn xml) in
  let store = Db.store db in
  Alcotest.(check (list int)) "eq a = oracle"
    (Oracle.lookup_string store a)
    (Db.lookup_string db a);
  (* a appears twice: 2 text nodes + 2 <u> elements *)
  Alcotest.(check int) "only exact a matches" 4
    (List.length (Db.lookup_string db a));
  let both = Db.query db (Ir.disj [ Ir.string_eq a; Ir.string_eq b ]) in
  Alcotest.(check (list int)) "or = oracle"
    (Oracle.eval_ir store (Ir.disj [ Ir.string_eq a; Ir.string_eq b ]))
    both;
  let sorted_nodup l =
    let rec go = function
      | x :: (y :: _ as rest) -> x < y && go rest
      | _ -> true
    in
    go l
  in
  Alcotest.(check bool) "no duplicates in the merged stream" true
    (sorted_nodup (Db.query_ids db (Ir.disj [ Ir.string_eq a; Ir.string_eq b ])));
  (* distinct colliding values conjoin to nothing *)
  Alcotest.(check (list int)) "and of distinct values" []
    (Db.query db (Ir.conj [ Ir.string_eq a; Ir.string_eq b ]))

(* --- Within over a tombstoned scope --- *)

let test_within_tombstoned_scope () =
  let db = mkdb () in
  let store = Db.store db in
  let shelf2 = List.nth (Db.elements_named db "shelf") 1 in
  let alive = Db.lookup_string_within db ~scope:shelf2 "Dune" in
  Alcotest.(check int) "one Dune on shelf 2" 2 (List.length alive)
  (* the title element and its text node *);
  Db.delete_subtree db shelf2;
  Alcotest.(check (list int)) "scoped lookup after delete" []
    (Db.lookup_string_within db ~scope:shelf2 "Dune");
  Alcotest.(check (list int)) "query within dead scope" []
    (Db.query db (Ir.within ~scope:shelf2 Ir.all));
  (* conjunction under a dead scope is empty before any cursor runs *)
  Alcotest.(check (list int)) "conj within dead scope" []
    (Db.query db
       (Ir.within ~scope:shelf2
          (Ir.conj [ Ir.string_eq "Dune"; Ir.named "title" ])));
  (* the surviving shelf is untouched *)
  let shelf1 = List.hd (Db.elements_named db "shelf") in
  Alcotest.(check int) "shelf 1 still answers" 2
    (List.length (Db.lookup_string_within db ~scope:shelf1 "Dune"));
  Alcotest.(check (list int)) "matches the oracle"
    (Oracle.eval_ir store (Ir.within ~scope:shelf1 (Ir.string_eq "Dune")))
    (Db.query db (Ir.within ~scope:shelf1 (Ir.string_eq "Dune")))

(* --- Not over the full document --- *)

let test_not_full_document () =
  let db = mkdb () in
  let store = Db.store db in
  let universe = Db.query db Ir.all in
  Alcotest.(check (list int)) "All = oracle universe"
    (Oracle.eval_ir store Ir.all) universe;
  Alcotest.(check bool) "universe is not empty" true (universe <> []);
  Alcotest.(check (list int)) "not All is nothing" []
    (Db.query db (Ir.neg Ir.all));
  (* Not of a miss is the whole universe *)
  Alcotest.(check (list int)) "not absent = universe" universe
    (Db.query db (Ir.neg (Ir.string_eq "no such value")));
  (* complement really partitions the universe *)
  let p = Ir.contains "Dune" in
  let yes = Db.query db p and no = Db.query db (Ir.neg p) in
  Alcotest.(check int) "partition sizes" (List.length universe)
    (List.length yes + List.length no);
  Alcotest.(check (list int)) "oracle agrees on the complement"
    (Oracle.eval_ir store (Ir.neg p)) no

(* --- Or merge order after structural inserts --- *)

let test_or_doc_order_after_insert () =
  let db = mkdb () in
  let store = Db.store db in
  (* append under shelf 1: the new nodes get the highest node ids but
     sit before shelf 2 in document order *)
  let shelf1 = List.hd (Db.elements_named db "shelf") in
  (match Db.insert_xml db ~parent:shelf1 "<book><title>Ubik</title></book>" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert: %s" (Parser.error_to_string e));
  let ir = Ir.disj [ Ir.string_eq "Ubik"; Ir.string_eq "Dune" ] in
  let hits = Db.query db ir in
  Alcotest.(check (list int)) "or matches the oracle's document order"
    (Oracle.eval_ir store ir) hits;
  (* node-id order genuinely diverged, so the doc-order sort did work *)
  Alcotest.(check bool) "ids are not doc-ordered" true
    (List.sort compare hits <> hits);
  (* the lazy pipeline yields the cursors' node-id order *)
  Alcotest.(check (list int)) "query_seq is ascending node ids"
    (List.sort compare hits)
    (List.of_seq (Db.query_seq db ir))

(* --- totality without the optional indices --- *)

let test_unconfigured_fallbacks () =
  (* only the always-on indices: no substring, no typed. Every lookup
     still answers, through the planner's verified scan. *)
  let config = { Db.Config.default with Db.Config.types = [] } in
  let db = mkdb ~config () in
  let store = Db.store db in
  Alcotest.(check (list int)) "contains without the index"
    (Oracle.lookup_contains store "Dune")
    (Db.lookup_contains db "Dune");
  Alcotest.(check (list int)) "element_contains without the index"
    (Oracle.lookup_element_contains store "VALIS")
    (Db.lookup_element_contains db "VALIS");
  let r = Db.Range.between 7. 42. in
  Alcotest.(check (list int)) "typed range without the index"
    (Oracle.lookup_typed store (Xvi_core.Lexical_types.double ()) r)
    (Db.lookup_double db r);
  Alcotest.(check bool) "typed fallback finds the prices" true
    (Db.lookup_double db r <> []);
  (* a type no configuration ever indexed *)
  Alcotest.(check (list int)) "xs:integer scan fallback"
    (Oracle.lookup_typed store (Xvi_core.Lexical_types.integer ())
       (Db.Range.at_least 0.))
    (Db.lookup_typed db "xs:integer" (Db.Range.at_least 0.));
  (* unknown type names still fail loudly at compile time *)
  Alcotest.check_raises "unknown type"
    (Invalid_argument "Db: unknown type xs:bogus")
    (fun () -> ignore (Db.lookup_typed db "xs:bogus" Db.Range.any))

(* --- the planner's explain output --- *)

let contains_sub ~pattern s =
  let m = String.length pattern and n = String.length s in
  let rec at i j = j = m || (s.[i + j] = pattern.[j] && at i (j + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  m = 0 || go 0

let test_explain_shapes () =
  let db = mkdb () in
  (* conjunction: cheapest input first, streaming merge *)
  let conj =
    Ir.conj [ Ir.named "book"; Ir.typed_range "xs:double" Db.Range.any ]
  in
  let ex = Db.explain db conj in
  Alcotest.(check bool) "conjunction intersects" true
    (contains_sub ~pattern:"intersect" ex);
  Alcotest.(check bool) "cheapest drives" true
    (contains_sub ~pattern:"cheapest drives" ex);
  (* the within wrapper becomes a staircase filter, not an intersection *)
  let shelf1 = List.hd (Db.elements_named db "shelf") in
  let ex = Db.explain db (Ir.within ~scope:shelf1 (Ir.string_eq "Dune")) in
  Alcotest.(check bool) "within staircases" true
    (contains_sub ~pattern:"staircase within" ex);
  Alcotest.(check bool) "no intersection for within" false
    (contains_sub ~pattern:"intersect" ex);
  (* no index for Not: the fallback announces itself *)
  let ex = Db.explain db (Ir.neg (Ir.named "book")) in
  Alcotest.(check bool) "scan fallback is explicit" true
    (contains_sub ~pattern:"scan+verify" ex)

let () =
  Alcotest.run "query"
    [
      ( "cursors",
        [
          Alcotest.test_case "empty cursors" `Quick test_empty_cursors;
          Alcotest.test_case "merge dedup" `Quick test_merge_dedup;
        ] );
      ( "planner",
        [
          Alcotest.test_case "collision false positives" `Quick
            test_collision_no_false_positives;
          Alcotest.test_case "within tombstoned scope" `Quick
            test_within_tombstoned_scope;
          Alcotest.test_case "not over full document" `Quick
            test_not_full_document;
          Alcotest.test_case "or doc order after insert" `Quick
            test_or_doc_order_after_insert;
          Alcotest.test_case "unconfigured fallbacks" `Quick
            test_unconfigured_fallbacks;
          Alcotest.test_case "explain shapes" `Quick test_explain_shapes;
        ] );
    ]
