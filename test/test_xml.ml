(* XML substrate tests: parser, store navigation, XDM string values,
   updates, tombstones, pre/size/level snapshots, serialisation
   round-trips (including a property over generated random documents). *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Ser = Xvi_xml.Serializer
module Prng = Xvi_util.Prng

let parse = Parser.parse_exn

let person_doc =
  "<person><name><first>Arthur</first><family>Dent</family></name>\
   <birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age>\
   <weight><kilos>78</kilos>.<grams>230</grams></weight></person>"

let root store =
  match
    List.find_opt
      (fun n -> Store.kind store n = Store.Element)
      (Store.children store Store.document)
  with
  | Some r -> r
  | None -> Alcotest.fail "no root element"

(* --- parser --- *)

let test_parse_basic () =
  let s = parse "<a><b>hi</b><c x=\"1\" y='2'/></a>" in
  let a = root s in
  Alcotest.(check string) "root name" "a" (Store.name s a);
  match Store.children s a with
  | [ b; c ] ->
      Alcotest.(check string) "b" "b" (Store.name s b);
      Alcotest.(check string) "b text" "hi" (Store.string_value s b);
      Alcotest.(check int) "c attrs" 2 (List.length (Store.attributes s c));
      let x = List.hd (Store.attributes s c) in
      Alcotest.(check string) "attr name" "x" (Store.name s x);
      Alcotest.(check string) "attr value" "1" (Store.text s x)
  | l -> Alcotest.failf "expected 2 children, got %d" (List.length l)

let test_parse_entities () =
  let s = parse "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>" in
  Alcotest.(check string) "decoded" "<x> & \"y\" 'z' AB"
    (Store.string_value s (root s))

let test_parse_numeric_refs_utf8 () =
  let s = parse "<a>&#955;&#28450;&#128512;</a>" in
  (* λ (2 bytes), 漢 (3 bytes), 😀 (4 bytes) *)
  Alcotest.(check string) "utf8" "\xce\xbb\xe6\xbc\xa2\xf0\x9f\x98\x80"
    (Store.string_value s (root s))

let test_parse_cdata () =
  let s = parse "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.(check string) "cdata" "<raw> & stuff" (Store.string_value s (root s))

let test_parse_comments_pis () =
  let s = parse "<?xml version=\"1.0\"?><!-- top --><a><!-- in --><?proc data?>x</a>" in
  Alcotest.(check string) "string value ignores comments/PIs" "x"
    (Store.string_value s (root s));
  let kinds = List.map (Store.kind s) (Store.children s (root s)) in
  Alcotest.(check int) "children" 3 (List.length kinds);
  Alcotest.(check int) "comment count" 2 (Store.count_of_kind s Store.Comment);
  Alcotest.(check int) "pi count" 1 (Store.count_of_kind s Store.Pi)

let test_parse_doctype () =
  let s = parse "<!DOCTYPE doc [ <!ELEMENT doc (#PCDATA)> ]><doc>ok</doc>" in
  Alcotest.(check string) "after doctype" "ok" (Store.string_value s (root s))

let test_parse_whitespace_strip () =
  let s = parse "<a>\n  <b>x</b>\n  <c>y</c>\n</a>" in
  Alcotest.(check int) "ws text dropped" 2 (Store.count_of_kind s Store.Text);
  let s2 = Parser.parse_exn ~strip_ws:false "<a>\n  <b>x</b>\n</a>" in
  Alcotest.(check int) "ws kept" 3 (Store.count_of_kind s2 Store.Text)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let expect_error src fragment =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error e ->
      let msg = Parser.error_to_string e in
      if not (contains ~needle:fragment msg) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_parse_errors () =
  expect_error "<a><b></a>" "mismatched";
  expect_error "<a>" "unexpected end";
  expect_error "<a></a><b></b>" "after the root";
  expect_error "<a x=1></a>" "quoted";
  expect_error "<a>&unknown;</a>" "unknown entity";
  expect_error "" "expected root";
  expect_error "<a><b attr=\"x\"</a>" "name"

(* --- store navigation and values --- *)

let test_navigation () =
  let s = parse person_doc in
  let person = root s in
  let kids = Store.children s person in
  Alcotest.(check int) "4 children" 4 (List.length kids);
  let name = List.nth kids 0 and age = List.nth kids 2 in
  Alcotest.(check string) "name" "name" (Store.name s name);
  Alcotest.(check (option int)) "parent" (Some person) (Store.parent s name);
  Alcotest.(check bool) "ancestor" true
    (Store.is_ancestor s ~ancestor:person (List.hd (Store.children s name)));
  Alcotest.(check bool) "not self-ancestor" false
    (Store.is_ancestor s ~ancestor:person person);
  Alcotest.(check int) "level of person" 1 (Store.level s person);
  let first = List.hd (Store.children s name) in
  Alcotest.(check int) "level of first" 4
    (Store.level s (List.hd (Store.children s first)));
  Alcotest.(check (option int)) "prev sibling" (Some name)
    (Store.prev_sibling s (List.nth kids 1));
  Alcotest.(check (option int)) "last child" (Some (List.nth kids 3))
    (Store.last_child s person);
  Alcotest.(check int) "subtree size of age" 5 (Store.subtree_size s age)

let test_string_values () =
  let s = parse person_doc in
  let person = root s in
  Alcotest.(check string) "person" "ArthurDent1966-09-264278.230"
    (Store.string_value s person);
  let weight = List.nth (Store.children s person) 3 in
  Alcotest.(check string) "weight" "78.230" (Store.string_value s weight);
  let age = List.nth (Store.children s person) 2 in
  Alcotest.(check string) "age mixed content" "42" (Store.string_value s age);
  Alcotest.(check string) "document" "ArthurDent1966-09-264278.230"
    (Store.string_value s Store.document)

let test_text_nodes_order () =
  let s = parse person_doc in
  let texts = Store.text_nodes s in
  let values = Array.to_list (Array.map (Store.text s) texts) in
  Alcotest.(check (list string)) "doc order"
    [ "Arthur"; "Dent"; "1966-09-26"; "4"; "2"; "78"; "."; "230" ]
    values

let test_iter_pre_attributes_first () =
  let s = parse "<a x=\"1\"><b y=\"2\">t</b></a>" in
  let order = ref [] in
  Store.iter_pre s (fun n -> order := n :: !order);
  let kinds = List.rev_map (Store.kind s) !order in
  Alcotest.(check bool) "doc first" true (List.hd kinds = Store.Document);
  (* a, @x, b, @y, text *)
  Alcotest.(check int) "count" 6 (List.length kinds)

let test_set_text () =
  let s = parse person_doc in
  let texts = Store.text_nodes s in
  Store.set_text s texts.(1) "Prefect";
  Alcotest.(check string) "updated" "ArthurPrefect1966-09-264278.230"
    (Store.string_value s (root s));
  Alcotest.check_raises "element refuses set_text"
    (Invalid_argument "Store.set_text: node 1 has the wrong kind") (fun () ->
      Store.set_text s (root s) "x")

let test_delete_subtree () =
  let s = parse person_doc in
  let person = root s in
  let before = Store.live_count s in
  let age = List.nth (Store.children s person) 2 in
  Store.delete_subtree s age;
  Alcotest.(check int) "live count drops by 5" (before - 5) (Store.live_count s);
  Alcotest.(check int) "3 children left" 3 (List.length (Store.children s person));
  Alcotest.(check string) "string value excludes deleted"
    "ArthurDent1966-09-2678.230"
    (Store.string_value s person);
  Alcotest.(check bool) "tombstoned" false (Store.is_live s age);
  (* node ids of survivors unchanged *)
  Alcotest.(check string) "survivor intact" "weight"
    (Store.name s (List.nth (Store.children s person) 2))

let test_insert () =
  let s = parse "<a><b/><d/></a>" in
  let a = root s in
  let d = List.nth (Store.children s a) 1 in
  let c = Store.insert_element s ~parent:a ~before:d "c" in
  let names = List.map (Store.name s) (Store.children s a) in
  Alcotest.(check (list string)) "order" [ "b"; "c"; "d" ] names;
  let t = Store.insert_text s ~parent:c "mid" in
  Alcotest.(check string) "text" "mid" (Store.text s t);
  Alcotest.(check string) "value" "mid" (Store.string_value s a)

let test_parse_fragment () =
  let s = parse "<a><b/></a>" in
  let a = root s in
  (match Parser.parse_fragment s ~parent:a "<c>x</c><d/>" with
  | Ok roots -> Alcotest.(check int) "two roots" 2 (List.length roots)
  | Error e -> Alcotest.failf "fragment: %s" (Parser.error_to_string e));
  Alcotest.(check (list string)) "children" [ "b"; "c"; "d" ]
    (List.map (Store.name s) (Store.children s a))

let test_pre_size_level () =
  let s = parse "<a x=\"1\"><b><c>t</c></b><d/></a>" in
  let psl = Store.pre_size_level s in
  (* document, a, @x, b, c, text, d *)
  Alcotest.(check int) "entries" 7 (Array.length psl);
  let _, doc_size, doc_level = psl.(0) in
  Alcotest.(check int) "doc size" 6 doc_size;
  Alcotest.(check int) "doc level" 0 doc_level;
  let _, a_size, a_level = psl.(1) in
  Alcotest.(check int) "a size" 5 a_size;
  Alcotest.(check int) "a level" 1 a_level;
  (* sizes are consistent: node at pre p spans the next size entries *)
  let _, b_size, _ = psl.(3) in
  Alcotest.(check int) "b size" 2 b_size

let test_compare_order () =
  let s = parse "<a x=\"1\" y=\"2\"><b>t1</b><c><d/>t2</c></a>" in
  (* collect in document order via iter_pre, then check compare_order
     agrees pairwise *)
  let order = ref [] in
  Store.iter_pre s (fun n -> order := n :: !order);
  let order = Array.of_list (List.rev !order) in
  let n = Array.length order in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = Store.compare_order s order.(i) order.(j) in
      let expect = compare i j in
      if (c < 0) <> (expect < 0) || (c = 0) <> (expect = 0) then
        Alcotest.failf "compare_order(%d, %d) = %d, expected sign of %d"
          order.(i) order.(j) c expect
    done
  done

let test_counts_bytes () =
  let s = parse person_doc in
  Alcotest.(check int) "elements" 11 (Store.count_of_kind s Store.Element);
  Alcotest.(check int) "texts" 8 (Store.count_of_kind s Store.Text);
  Alcotest.(check int) "live = range" (Store.node_range s) (Store.live_count s);
  Alcotest.(check bool) "storage positive" true (Store.storage_bytes s > 0);
  Alcotest.(check int) "text bytes"
    (String.length "ArthurDent1966-09-264278.230")
    (Store.text_bytes s)

let test_compact () =
  let s = parse person_doc in
  let person = root s in
  let age = List.nth (Store.children s person) 2 in
  Store.delete_subtree s age;
  ignore (Store.insert_element s ~parent:person "appendix");
  let fresh, map = Store.compact s in
  (* same live content, dense ids *)
  Alcotest.(check int) "live counts" (Store.live_count s) (Store.live_count fresh);
  Alcotest.(check int) "no slack" (Store.node_range fresh) (Store.live_count fresh);
  Alcotest.(check string) "same document"
    (Ser.document_to_string ~decl:false s)
    (Ser.document_to_string ~decl:false fresh);
  (* the mapping relates equal subtrees and drops tombstones *)
  Alcotest.(check (option int)) "deleted unmapped" None (map age);
  Store.iter_pre s (fun n ->
      match map n with
      | None -> Alcotest.failf "live node %d unmapped" n
      | Some n' ->
          Alcotest.(check string)
            (Printf.sprintf "string value of %d preserved" n)
            (Store.string_value s n)
            (Store.string_value fresh n'));
  Alcotest.(check (option int)) "out of range" None (map 99_999)

let test_db_compact () =
  let db = Xvi_core.Db.of_store (Parser.parse_exn person_doc) in
  let store = Xvi_core.Db.store db in
  let person =
    Option.get (Store.first_child store Store.document)
  in
  Xvi_core.Db.delete_subtree db (List.nth (Store.children store person) 2);
  let db', map = Xvi_core.Db.compact db in
  (match Xvi_core.Db.validate db' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compacted validate: %s" e);
  Alcotest.(check int) "lookup still works" 1
    (List.length (Xvi_core.Db.lookup_string db' "ArthurDent"));
  (* mapped node answers the same lookup *)
  let name_old = List.hd (Xvi_core.Db.lookup_string db "ArthurDent") in
  Alcotest.(check (list int)) "mapping consistent"
    [ Option.get (map name_old) ]
    (Xvi_core.Db.lookup_string db' "ArthurDent")

(* --- serialisation round-trip --- *)

let test_roundtrip_exact () =
  List.iter
    (fun doc ->
      let s = parse doc in
      Alcotest.(check string) "roundtrip" doc (Ser.to_string s (root s)))
    [
      person_doc;
      "<a x=\"1\" y=\"2\"><b/>text<c>more</c></a>";
      "<r>&amp;&lt;&gt;</r>";
    ]

let test_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Ser.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "a&amp;b&lt;c&quot;d" (Ser.escape_attr "a&b<c\"d")

(* Random document generator (direct store construction), then
   serialise-parse-serialise must be a fixed point. *)
let random_store seed =
  let rng = Prng.create seed in
  let s = Store.create () in
  let words = [| "alpha"; "beta"; "42"; "3.14"; " x "; "a&b"; "<t>"; "" |] in
  let fresh_text () = words.(Prng.int rng (Array.length words)) in
  let rec build parent depth budget =
    if !budget > 0 then begin
      let n_children = Prng.int rng (if depth > 4 then 2 else 4) in
      for _ = 1 to n_children do
        if !budget > 0 then begin
          decr budget;
          match Prng.int rng 10 with
          | 0 | 1 | 2 | 3 ->
              let txt = fresh_text () in
              if txt <> "" then ignore (Store.append_text s ~parent txt)
          | 4 ->
              if Store.kind s parent = Store.Element then
                ignore
                  (Store.append_attribute s ~element:parent
                     ~name:(Printf.sprintf "a%d" (Prng.int rng 5))
                     ~value:(fresh_text ()))
          | 5 -> ignore (Store.append_comment s ~parent "note")
          | _ ->
              let e =
                Store.append_element s ~parent
                  (Printf.sprintf "e%d" (Prng.int rng 8))
              in
              build e (depth + 1) budget
        end
      done
    end
  in
  let root = Store.append_element s ~parent:Store.document "root" in
  let budget = ref (20 + Prng.int rng 150) in
  build root 0 budget;
  s

let test_compare_order_random () =
  for seed = 1 to 20 do
    let s = random_store (900 + seed) in
    let order = ref [] in
    Store.iter_pre s (fun n -> order := n :: !order);
    let order = Array.of_list (List.rev !order) in
    let sorted = Array.copy order in
    (* shuffle then re-sort with compare_order *)
    let rng = Prng.create seed in
    Prng.shuffle rng sorted;
    Array.sort (Store.compare_order s) sorted;
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (sorted = order)
  done

let test_roundtrip_random () =
  for seed = 1 to 50 do
    let s = random_store seed in
    let rendered = Ser.document_to_string ~decl:false s in
    let reparsed = Parser.parse_exn ~strip_ws:false rendered in
    let rendered2 = Ser.document_to_string ~decl:false reparsed in
    Alcotest.(check string) (Printf.sprintf "fixpoint seed %d" seed) rendered rendered2;
    Alcotest.(check string)
      (Printf.sprintf "string value preserved seed %d" seed)
      (Store.string_value s Store.document)
      (Store.string_value reparsed Store.document)
  done

let () =
  Alcotest.run "xml"
    [
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "numeric refs utf8" `Quick test_parse_numeric_refs_utf8;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments and PIs" `Quick test_parse_comments_pis;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "whitespace strip" `Quick test_parse_whitespace_strip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "fragment" `Quick test_parse_fragment;
        ] );
      ( "store",
        [
          Alcotest.test_case "navigation" `Quick test_navigation;
          Alcotest.test_case "string values" `Quick test_string_values;
          Alcotest.test_case "text nodes order" `Quick test_text_nodes_order;
          Alcotest.test_case "iter_pre" `Quick test_iter_pre_attributes_first;
          Alcotest.test_case "set_text" `Quick test_set_text;
          Alcotest.test_case "delete subtree" `Quick test_delete_subtree;
          Alcotest.test_case "insert" `Quick test_insert;
          Alcotest.test_case "pre/size/level" `Quick test_pre_size_level;
          Alcotest.test_case "compare_order" `Quick test_compare_order;
          Alcotest.test_case "compare_order random" `Quick test_compare_order_random;
          Alcotest.test_case "counts and bytes" `Quick test_counts_bytes;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "db compact" `Quick test_db_compact;
        ] );
      ( "serialiser",
        [
          Alcotest.test_case "roundtrip exact" `Quick test_roundtrip_exact;
          Alcotest.test_case "escaping" `Quick test_escape;
          Alcotest.test_case "roundtrip random" `Quick test_roundtrip_random;
        ] );
    ]
