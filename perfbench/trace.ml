(* The traced run: the socket run's seeded streams replayed in process,
   with a span around every call into a layer's public functions.

   Spans come only from this file (the program itself records none).
   Where a layer's work happens inside a call that cannot be split from
   outside — an index probe inside [Db.lookup_string], the WAL fsync and
   epoch copy inside [Engine.submit_durable] — the inner layer's public
   function is called again on the same input as a sibling span of the
   same request id; the differences are reported as plan overhead and as
   an unattributed residual.

   Output: [T rid id parent name start end] spans, [S series ns] extra
   samples and [C name value] counters. *)

module Db = Xvi_core.Db
module Store = Xvi_xml.Store
module Engine = Xvi_serve.Engine
module P = Xvi_serve.Protocol
module Wal = Xvi_wal.Wal
module Range = Xvi_query.Range

let now_ns = Spans.now_ns

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let copy_file src dst =
  let data = read_file src in
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  if Array.length a = 0 then nan else a.(Array.length a / 2)

let time_s f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e9)

let drain_sax doc =
  let s = Xvi_xml.Sax.make (Xvi_xml.Sax.of_string doc) in
  let rec go () =
    match Xvi_xml.Sax.next s with
    | Ok (Some _) -> go ()
    | Ok None -> ()
    | Error _ -> failwith "sax: parse error"
  in
  go ()

let range lo hi =
  match (lo, hi) with
  | Some lo, Some hi -> Range.between lo hi
  | Some lo, None -> Range.at_least lo
  | None, Some hi -> Range.at_most hi
  | None, None -> Range.any

let decode_frames data =
  let rec go pos acc =
    match Wal.decode data pos with
    | Wal.Frame (f, next) -> go next (f :: acc)
    | Wal.End -> List.rev acc
    | Wal.Torn m -> failwith ("pulled frames: " ^ m)
  in
  go 0 []

let run ~seed ~doc_path ~dir ~out ~reads ~commits ~lag_commits =
  let doc = read_file doc_path in
  let mb = float_of_int (String.length doc) /. 1e6 in
  let oc = open_out out in
  let counter k v = Printf.fprintf oc "C\t%s\t%.17g\n" k v in
  let failures = ref 0 in
  let sp = Spans.create () in
  let span ~rid ~parent name f = Spans.span sp ~rid ~parent name f in
  (* set-up layers *)
  let sax_s = median (List.init 3 (fun _ -> snd (time_s (fun () -> drain_sax doc)))) in
  counter "sax.mb_per_s" (mb /. sax_s);
  let plain, load_s =
    time_s (fun () ->
        match Xvi_ingest.Ingest.load (Xvi_xml.Sax.of_string doc) with
        | Ok db -> db
        | Error _ -> failwith "ingest: parse error")
  in
  counter "ingest.load_mb_per_s" (mb /. load_s);
  let ldir = Filename.concat dir "leader" in
  let leader =
    match Engine.init ~sync_mode:Wal.Always ~publish_period:0. ~dir:ldir (Db.copy plain) with
    | Ok e -> e
    | Error e -> failwith (Engine.error_to_string e)
  in
  let snap = Filename.concat ldir "snapshot.xvi" in
  let loaded, snap_s = time_s (fun () -> Xvi_core.Snapshot.load snap) in
  (match loaded with
  | Ok _ -> ()
  | Error e -> failwith (Xvi_core.Snapshot.error_to_string e));
  counter "snapshot.load_s" snap_s;
  let st = Stream.build ~seed plain in
  let pinned = Engine.pin leader in
  counter "db.index_storage_bytes"
    (float_of_int (Db.index_storage_bytes pinned.Engine.db));
  (* --- reads: decode, pin, Db read, encode, frame read --- *)
  let reqs =
    let g = Stream.reader ~seed ~conn:100 in
    Array.init reads (fun _ -> Stream.next_read st g)
  in
  let encoded = Array.map (fun r -> P.encode_request (Stream.to_request r)) reqs in
  let fa, fb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let serve i =
    let rid = i in
    span ~rid ~parent:(-1) "request" (fun self ->
        let span name f = span ~rid ~parent:self name (fun _ -> f ()) in
        let req =
          match span "protocol.decode_request" (fun () -> P.decode_request encoded.(i)) with
          | Ok r -> r
          | Error m -> failwith m
        in
        let pin = span "engine.pin" (fun () -> Engine.pin leader) in
        let db = pin.Engine.db in
        let resp =
          match req with
          | P.Lookup_string v ->
              let r = span "db.lookup_string" (fun () -> P.Nodes (Db.lookup_string db v)) in
              ignore
                (span "string_index.lookup" (fun () ->
                     Xvi_core.String_index.lookup (Db.string_index db) (Db.store db) v));
              r
          | P.Lookup_typed (ty, lo, hi) ->
              let r =
                span "db.lookup_typed" (fun () ->
                    match Db.lookup_typed_r db ty (range lo hi) with
                    | Ok l -> P.Nodes l
                    | Error e -> P.Err (Db.read_error_to_string e))
              in
              ignore
                (span "typed_index.range" (fun () ->
                     match Db.typed_index db ty with
                     | Some ti -> Xvi_core.Typed_index.range ?lo ?hi ti
                     | None -> []));
              r
          | P.Lookup_named n ->
              span "db.elements_named" (fun () -> P.Nodes (Db.elements_named db n))
          | P.Value n ->
              span "db.value" (fun () -> P.Value_r (Store.string_value (Db.store db) n))
          | P.Pin ->
              P.Epoch
                { epoch = pin.Engine.epoch; lsn = pin.Engine.lsn; commits = pin.Engine.commits }
          | _ -> P.Err "not in the read mix"
        in
        let enc = span "protocol.encode_response" (fun () -> P.encode_response resp) in
        P.write_frame fa enc;
        (match span "protocol.read_frame" (fun () -> P.read_frame fb) with
        | Ok _ -> ()
        | Error _ -> failwith "read_frame");
        (resp, String.length enc))
  in
  let pass () =
    let bytes = ref 0 in
    let t0 = now_ns () in
    Array.iteri
      (fun i r ->
        let resp, n = serve i in
        bytes := !bytes + n;
        if Stream.check st r resp <> None then incr failures)
      reqs;
    (!bytes, now_ns () - t0)
  in
  sp.Spans.on <- false;
  ignore (pass ());
  let gc0 = Gc.quick_stat () in
  let bytes_off, wall_off = pass () in
  let gc1 = Gc.quick_stat () in
  sp.Spans.on <- true;
  let bytes_on, wall_on = pass () in
  if bytes_on <> bytes_off then begin
    incr failures;
    prerr_endline "trace: response bytes differ between the two passes"
  end;
  counter "protocol.response_bytes" (float_of_int bytes_off);
  counter "trace.overhead_pct"
    (100. *. float_of_int (wall_on - wall_off) /. float_of_int wall_off);
  let per_op = float_of_int reads in
  counter "gc.minor_words_per_op" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. per_op);
  counter "gc.major_collections_per_1k_ops"
    (1000. *. float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. per_op);
  (* planner estimates against actual rows, over the distinct probes *)
  let ratios = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      let ir =
        match r with
        | Stream.Str v -> Some (Db.Ir.string_eq v)
        | Stream.Typed (ty, lo, hi) -> Some (Db.Ir.typed_range ty (range lo hi))
        | _ -> None
      in
      match ir with
      | Some ir when not (Hashtbl.mem ratios r) ->
          let actual = List.length (Db.query pinned.Engine.db ir) in
          Hashtbl.replace ratios r
            (float_of_int (Db.estimate pinned.Engine.db ir) /. float_of_int (max 1 actual))
      | _ -> ())
    reqs;
  let rl = Hashtbl.fold (fun _ v acc -> v :: acc) ratios [] in
  counter "db.estimate_over_actual_p50" (median rl);
  counter "db.estimate_over_actual_max" (List.fold_left max 0. rl);
  Unix.close fa;
  Unix.close fb;
  (* --- writes and their replication --- *)
  let rdir = Filename.concat dir "replica" in
  Unix.mkdir rdir 0o755;
  List.iter
    (fun f -> copy_file (Filename.concat ldir f) (Filename.concat rdir f))
    (Array.to_list (Sys.readdir ldir));
  let follower =
    ok_or "follower"
      (Xvi_repl.Follower.create
         ~transport:(Xvi_repl.Transport.of_engine leader)
         ~dir:(Filename.concat dir "follower") ())
  in
  let wal = Wal.Writer.create ~sync_mode:Wal.Never (Filename.concat dir "scratch.wal") in
  let w = Stream.writer ~seed ~tag:"c" in
  let s0 = Engine.stats leader in
  let promoted = ref 0. in
  let batches = ref [] in
  for k = 0 to commits - 1 do
    let writes = Stream.next_commit st w in
    let rid = 1_000_000 + k in
    let from_lsn = (Engine.pin leader).Engine.lsn in
    let g0 = Gc.quick_stat () in
    span ~rid ~parent:(-1) "commit" (fun self ->
        let tx =
          span ~rid ~parent:self "txn.stage" (fun _ ->
              let tx = Engine.begin_ leader in
              List.iter
                (fun (n, v) ->
                  match Xvi_txn.Txn.update_text tx n v with
                  | Ok () -> ()
                  | Error _ -> failwith "stage")
                writes;
              tx)
        in
        match span ~rid ~parent:self "engine.submit_durable" (fun _ -> Engine.submit_durable leader tx) with
        | Ok _ -> ()
        | Error e -> failwith (Engine.error_to_string e));
    let g1 = Gc.quick_stat () in
    promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    let span name f = span ~rid ~parent:(-1) name (fun _ -> f ()) in
    (match span "leader.pull" (fun () -> Xvi_repl.Leader.pull leader ~from_lsn ~max_bytes:(1 lsl 20)) with
    | P.Frames_r { data; _ } -> batches := decode_frames data :: !batches
    | _ -> failwith "leader.pull: no frames");
    (match span "follower.catch_up" (fun () -> Xvi_repl.Follower.catch_up follower) with
    | Ok (`Applied _) -> ()
    | Ok _ -> failwith "follower.catch_up: nothing applied"
    | Error m -> failwith ("follower.catch_up: " ^ m));
    span "db.update_text" (fun () -> Db.update_texts plain writes);
    ignore (span "db.copy" (fun () -> Db.copy plain) : Db.t);
    ignore
      (span "pre_plane.build" (fun () -> Xvi_xml.Pre_plane.build (Db.store plain))
        : Xvi_xml.Pre_plane.t);
    let records =
      (Wal.Begin { txn = k }
      :: List.map (fun (node, value) -> Wal.Update_text { txn = k; node; value }) writes)
      @ [ Wal.Commit { txn = k } ]
    in
    List.iter (fun r -> ignore (span "wal.append" (fun () -> Wal.Writer.append wal r) : int)) records;
    span "wal.fsync" (fun () -> Wal.Writer.sync wal)
  done;
  let s1 = Engine.stats leader in
  let per_commit a b = float_of_int (b - a) /. float_of_int commits in
  counter "engine.epochs_per_commit" (per_commit s0.Engine.epoch s1.Engine.epoch);
  (match (s0.Engine.durable, s1.Engine.durable) with
  | Some d0, Some d1 ->
      counter "wal.bytes_per_commit"
        (per_commit d0.Xvi_wal.Durable.wal_bytes d1.Xvi_wal.Durable.wal_bytes)
  | _ -> failwith "leader is not durable");
  counter "gc.promoted_words_per_commit" (!promoted /. float_of_int commits);
  Wal.Writer.close wal;
  (* a live follower's lag: its idle poll plus one catch-up round *)
  Xvi_repl.Follower.start follower;
  for _ = 1 to lag_commits do
    let writes = Stream.next_commit st w in
    let lsn = ok_or "commit" (Result.map_error Engine.error_to_string (Engine.update_texts leader writes)) in
    Engine.await_durable leader lsn;
    let ack = now_ns () in
    while Xvi_repl.Follower.applied_lsn follower < lsn do
      Unix.sleepf 0.0002
    done;
    Printf.fprintf oc "S\tinproc_lag\t%d\n" (now_ns () - ack)
  done;
  Xvi_repl.Follower.close follower;
  (* the replica-side apply, on a copy of the leader's starting state *)
  let replica =
    match Engine.open_ (Engine.Replica rdir) with
    | Ok e -> e
    | Error e -> failwith (Engine.error_to_string e)
  in
  List.iteri
    (fun k frames ->
      match
        span ~rid:(1_000_000 + k) ~parent:(-1) "engine.replica_apply" (fun _ ->
            Engine.replica_apply replica frames)
      with
      | Ok _ -> ()
      | Error e -> failwith (Engine.error_to_string e))
    (List.rev !batches);
  Engine.close replica;
  Engine.close leader;
  counter "failed" (float_of_int !failures);
  counter "attempted" (float_of_int (3 * reads));
  Spans.write sp oc;
  close_out oc
