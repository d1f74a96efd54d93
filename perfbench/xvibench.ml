(* Benchmark helper driven by perfbench/run.py:

     xvibench gen    --seed N --factor F --out DOC
     xvibench drive  --workload W --seed N --doc DOC --leader SOCK
                     [--follower SOCK] --seconds S --warm S
                     [--interval S --jitter S]
                     [--calib-reads N --calib-commits N]
                     --out FILE
     xvibench verify --leader SOCK --acked FILE
     xvibench trace  --seed N --doc DOC --dir DIR --reads N --commits N
                     --lag-commits N --out FILE *)

let args () =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | k :: _ -> failwith ("bad argument " ^ k)
  in
  go (List.tl (List.tl (Array.to_list Sys.argv)));
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  let opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  (get, opt)

let gen () =
  let get, _ = args () in
  let xml =
    Xvi_workload.Xmark.generate ~seed:(int_of_string (get "seed"))
      ~factor:(float_of_string (get "factor")) ()
  in
  let oc = open_out_bin (get "out") in
  output_string oc xml;
  close_out oc

let checker doc =
  match Xvi_ingest.Ingest.load (Xvi_xml.Sax.of_string (Trace.read_file doc)) with
  | Ok db -> db
  | Error _ -> failwith "checker: document does not parse"

let drive () =
  let get, opt = args () in
  let seed = int_of_string (get "seed") in
  let st = Stream.build ~seed (checker (get "doc")) in
  (* the checking database is not needed while timing; keep the load
     generator's heap small so its collections stay short *)
  Gc.compact ();
  let recheck writes = Stream.recheck_after_writes st (checker (get "doc")) writes in
  let secs = float_of_string (get "seconds") and warm = float_of_string (get "warm") in
  let calib =
    match (opt "calib-reads" "", opt "calib-commits" "") with
    | "", "" -> None
    | r, c -> Some (int_of_string r, int_of_string c)
  in
  let leader = get "leader" in
  let logs =
    match get "workload" with
    | "lookup" ->
        Drive.lookup st ~seed ~socket:leader ~warm ~secs ~calib
    | "update" ->
        Drive.update st ~recheck ~seed ~socket:leader ~warm ~secs ~calib
    | "replicate" ->
        Drive.replicate st ~seed ~leader ~follower:(get "follower") ~warm ~secs
          ~interval:(float_of_string (get "interval"))
          ~jitter:(float_of_string (get "jitter")) ~calib
    | w -> failwith ("unknown workload " ^ w)
  in
  Drive.write_logs (get "out") logs

(* Check that every acked write (last write per node wins) reads back
   from a server, e.g. one restarted over a killed leader's directory. *)
let verify () =
  let get, _ = args () in
  let last = Hashtbl.create 1024 in
  let ic = open_in (get "acked") in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ "W"; n; v ] -> Hashtbl.replace last (int_of_string n) v
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let c = Drive.connect (get "leader") in
  let missing =
    Hashtbl.fold
      (fun n v acc ->
        match Xvi_serve.Client.value c n with
        | Ok got when got = v -> acc
        | Ok _ | Error _ -> acc + 1)
      last 0
  in
  Xvi_serve.Client.close c;
  Printf.printf "verify\t%d\t%d\n" (Hashtbl.length last) missing

let trace () =
  let get, _ = args () in
  Trace.run ~seed:(int_of_string (get "seed")) ~doc_path:(get "doc")
    ~dir:(get "dir") ~out:(get "out")
    ~reads:(int_of_string (get "reads"))
    ~commits:(int_of_string (get "commits"))
    ~lag_commits:(int_of_string (get "lag-commits"))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Sys.argv with
  | [||] | [| _ |] -> prerr_endline "usage: xvibench gen|drive|verify|trace ..."; exit 2
  | _ -> (
      match Sys.argv.(1) with
      | "gen" -> gen ()
      | "drive" -> drive ()
      | "verify" -> verify ()
      | "trace" -> trace ()
      | c ->
          prerr_endline ("unknown command " ^ c);
          exit 2)
