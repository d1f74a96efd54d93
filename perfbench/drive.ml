(* The socket run: one load-generator process, at most two client
   connections (one domain each), every answer checked.

   Output (one file, written after the run): [S series ns] latency
   samples of the timed phase (-1 = a failed request, which misses every
   latency limit), [C name n] counters, [M text] failure messages and
   [W node value] acked writes in commit order. *)

module Client = Xvi_serve.Client

let now_ns = Spans.now_ns

(* growable int buffer: sample arrays stay off the minor heap's path *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1
end

type log = {
  series : (string, Buf.t) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable msgs : string list;
  mutable writes : (int * string) list;  (** acked, newest first *)
}

let new_log () =
  {
    series = Hashtbl.create 8;
    counters = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    msgs = [];
    writes = [];
  }

let sample log name v =
  let b =
    match Hashtbl.find_opt log.series name with
    | Some b -> b
    | None ->
        let b = Buf.create () in
        Hashtbl.replace log.series name b;
        b
  in
  Buf.add b v

let count log name v = Hashtbl.replace log.counters name v

let fail log msg =
  log.failed <- log.failed + 1;
  if List.length log.msgs < 20 then log.msgs <- msg :: log.msgs

(* one checked operation; [ok] false = failed *)
let op log ?series ~t0 ok msg =
  log.attempted <- log.attempted + 1;
  let dt = now_ns () - t0 in
  if not ok then fail log (msg ());
  match series with
  | Some s -> sample log s (if ok then dt else -1)
  | None -> ()

let connect socket =
  match Client.connect ~wait_s:30. ~socket () with
  | Ok c -> c
  | Error m -> failwith (Printf.sprintf "connect %s: %s" socket m)

(* -1 when the stats verb fails or lacks [key]; the report counts a -1
   as a failed check, never as a value *)
let stat_int c key =
  match Client.stats c with
  | Ok kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
      | None -> -1)
  | Error _ -> -1

(* --- reads --- *)

let one_read st c g log ?series () =
  let req = Stream.next_read st g in
  let t0 = now_ns () in
  let r = Client.request c (Stream.to_request req) in
  let series = match req with Stream.Pin -> None | _ -> series in
  match r with
  | Ok resp -> (
      match Stream.check st req resp with
      | None -> op log ?series ~t0 true (fun () -> "")
      | Some m -> op log ?series ~t0 false (fun () -> m))
  | Error m -> op log ?series ~t0 false (fun () -> "transport: " ^ m)

(* Closed loop until [deadline]. With [marks = (tag, from)], the sample
   count of [series] is also recorded at every whole second after
   [from] (series [mark.<tag>]), so the report can take medians over
   one-second windows. *)
let read_until st c g log ?series ?marks deadline =
  (match (series, marks) with
  | Some s, Some (tag, from) ->
      let next = ref (from + 1_000_000_000) in
      let count () =
        match Hashtbl.find_opt log.series s with Some b -> b.Buf.n | None -> 0
      in
      while now_ns () < deadline do
        one_read st c g log ?series ();
        if now_ns () >= !next then begin
          sample log ("mark." ^ tag) (count ());
          next := !next + 1_000_000_000
        end
      done
  | _ ->
      while now_ns () < deadline do
        one_read st c g log ?series ()
      done)

(* Closed loop with [think] ns between a reply and the next request:
   a bounded offered load. *)
let read_thinking st c g log ?series ~think deadline =
  while now_ns () < deadline do
    one_read st c g log ?series ();
    Unix.sleepf (float_of_int think /. 1e9)
  done

(* --- writes --- *)

let commit_writes c writes =
  let ( let* ) = Result.bind in
  let* () = Client.begin_ c in
  let rec stage = function
    | [] -> Ok ()
    | (n, v) :: rest ->
        let* () = Client.set c n v in
        stage rest
  in
  match stage writes with
  | Error m ->
      ignore (Client.abort c);
      Error m
  | Ok () -> Client.commit c

(* read-your-writes on the writer's own (repinned) session *)
let check_values c log writes =
  List.iter
    (fun (n, v) ->
      let t0 = now_ns () in
      match Client.value c n with
      | Ok got when got = v -> op log ~t0 true (fun () -> "")
      | Ok got ->
          op log ~t0 false (fun () ->
              Printf.sprintf "node %d reads %S, acked %S" n got v)
      | Error m -> op log ~t0 false (fun () -> Printf.sprintf "value %d: %s" n m))
    writes

let one_commit c log ?series writes =
  let t0 = now_ns () in
  match commit_writes c writes with
  | Ok _ ->
      op log ?series ~t0 true (fun () -> "");
      log.writes <- List.rev_append writes log.writes;
      check_values c log writes
  | Error m -> op log ?series ~t0 false (fun () -> "commit: " ^ m)

(* --- phase plumbing --- *)

let barrier parties =
  let arrived = Atomic.make 0 and start = Atomic.make 0 in
  fun () ->
    if Atomic.fetch_and_add arrived 1 + 1 = parties then
      Atomic.set start (now_ns ())
    else
      while Atomic.get start = 0 do
        Unix.sleepf 0.0002
      done;
    Atomic.get start

(* The same streams the traced replay runs in process, sent one at a
   time on one connection: their socket p50 minus the in-process time is
   the serving layer's residual. [calib] is [Some (reads, commits)] in a
   traced run, with [reads] the replay's own read count. *)
let calibrate st c log ~seed calib =
  Option.iter
    (fun (reads, commits) ->
      let g = Stream.reader ~seed ~conn:100 in
      for _ = 1 to reads do
        one_read st c g log ~series:"calib_lookup" ()
      done;
      let w = Stream.writer ~seed ~tag:"c" in
      for _ = 1 to commits do
        one_commit c log ~series:"calib_commit" (Stream.next_commit st w)
      done)
    calib

let secs_ns s = int_of_float (s *. 1e9)

(* --- workloads --- *)

let lookup st ~seed ~socket ~warm ~secs ~calib =
  let arrive = barrier 2 and leave = barrier 2 in
  let run conn () =
    let c = connect socket in
    let g = Stream.reader ~seed ~conn in
    let log = new_log () in
    read_until st c g log (now_ns () + secs_ns warm);
    if conn = 0 then begin
      count log "epoch_before" (stat_int c "epoch");
      count log "wal_bytes_before" (stat_int c "wal_bytes")
    end;
    let start = arrive () in
    read_until st c g log
      ~series:(Printf.sprintf "lookup.%d" conn)
      ~marks:(string_of_int conn, start)
      (start + secs_ns secs);
    ignore (leave ());
    if conn = 0 then begin
      count log "epoch_after" (stat_int c "epoch");
      count log "wal_bytes_after" (stat_int c "wal_bytes");
      calibrate st c log ~seed calib
    end;
    Client.close c;
    log
  in
  let d1 = Domain.spawn (run 1) in
  let l0 = run 0 () in
  let l1 = Domain.join d1 in
  [ l0; l1 ]

(* The update workload's reader thinks 1 ms between lookups: a bounded
   offered load, so the commits it runs beside see about the same
   interference whatever the machine's speed. *)
let reader_think = 1_000_000

let update st ~recheck ~seed ~socket ~warm ~secs ~calib =
  let arrive = barrier 2 and leave = barrier 2 in
  let writer () =
    let c = connect socket in
    let w = Stream.writer ~seed ~tag:"w" in
    let log = new_log () in
    let warm_end = now_ns () + secs_ns warm in
    while now_ns () < warm_end do
      one_commit c log (Stream.next_commit st w)
    done;
    count log "epoch_before" (stat_int c "epoch");
    count log "commits_before" (stat_int c "commits");
    let start = arrive () in
    let stop = start + secs_ns secs in
    while now_ns () < stop do
      one_commit c log ~series:"commit" (Stream.next_commit st w)
    done;
    count log "finish_0" (now_ns () - start);
    ignore (leave ());
    count log "epoch_after" (stat_int c "epoch");
    count log "commits_after" (stat_int c "commits");
    calibrate st c log ~seed calib;
    (c, log)
  in
  let reader () =
    let c = connect socket in
    let g = Stream.reader ~seed ~conn:1 in
    let log = new_log () in
    read_thinking st c g log ~think:reader_think (now_ns () + secs_ns warm);
    let start = arrive () in
    read_thinking st c g log ~series:"reader_lookup" ~think:reader_think
      (start + secs_ns secs);
    ignore (leave ());
    Client.close c;
    log
  in
  let dr = Domain.spawn reader in
  let c, lw = writer () in
  let lr = Domain.join dr in
  (* end of run: every acked value reads back on a fresh pin *)
  ignore (Client.pin c);
  let last = Hashtbl.create 256 in
  List.iter (fun (n, v) -> Hashtbl.replace last n v) (List.rev lw.writes);
  check_values c lw (Hashtbl.fold (fun n v acc -> (n, v) :: acc) last []);
  Client.close c;
  (match recheck (List.rev lw.writes) with
  | None -> ()
  | Some m -> fail lw ("harness: " ^ m));
  [ lw; lr ]

type job = { lsn : int; value : string; want : int list; ack : int; timed : bool }

(* The open loop's commit [k] is due at [k * period] plus a seeded
   offset below [jitter]. Without the offset, the follower's poll cycle
   (20 ms idle sleeps restarting after every apply) and a fixed period
   lock into one or two phases per run, so a run's lag median depended
   on where that phase happened to fall. *)
let replicate st ~seed ~leader ~follower ~warm ~secs ~interval ~jitter ~calib =
  let q = Queue.create () and m = Mutex.create () and cv = Condition.create () in
  let finished = ref false in
  let push j =
    Mutex.protect m (fun () ->
        Queue.push j q;
        Condition.signal cv)
  in
  let take () =
    Mutex.protect m (fun () ->
        while Queue.is_empty q && not !finished do
          Condition.wait cv m
        done;
        Queue.take_opt q)
  in
  let t_w = now_ns () in
  let t_s = t_w + secs_ns warm in
  let t_e = t_s + secs_ns secs in
  let period = secs_ns interval and jitter = secs_ns jitter in
  let jr = Xvi_util.Prng.create ((seed * 7_919) + 17) in
  let writer () =
    let c = connect leader in
    let w = Stream.writer ~seed ~tag:"r" in
    let log = new_log () in
    let k = ref 0 in
    let continue = ref true in
    while !continue do
      let due = t_w + (!k * period) + Xvi_util.Prng.int jr (max 1 jitter) in
      incr k;
      if due >= t_e then continue := false
      else begin
        let wait = due - now_ns () in
        if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
        let sent = now_ns () in
        let timed = due >= t_s in
        let node, value = Stream.next_single st w in
        log.attempted <- log.attempted + 1;
        let result = commit_writes c [ (node, value) ] in
        let ack = now_ns () in
        (* raw open-loop timestamps; latency and lateness are computed
           from the due time by the reporting side *)
        if timed then begin
          sample log "ol_due" due;
          sample log "ol_sent" sent;
          sample log "ol_ack" (if Result.is_ok result then ack else -1)
        end;
        match result with
        | Ok lsn ->
            log.writes <- (node, value) :: log.writes;
            check_values c log [ (node, value) ];
            push { lsn; value; want = Stream.chain st node; ack; timed }
        | Error msg -> fail log ("commit: " ^ msg)
      end
    done;
    Mutex.protect m (fun () ->
        finished := true;
        Condition.broadcast cv);
    calibrate st c log ~seed calib;
    (c, log)
  in
  let prober () =
    let c = connect follower in
    let log = new_log () in
    let rec applied_at_least lsn deadline =
      match Client.repl_info c with
      | Ok i when i.Client.applied_lsn >= lsn -> true
      | Ok _ | Error _ ->
          if now_ns () > deadline then false
          else begin
            Unix.sleepf 0.001;
            applied_at_least lsn deadline
          end
    in
    let rec loop () =
      match take () with
      | None -> ()
      | Some j ->
          let t0 = now_ns () in
          let series = if j.timed then Some "lag" else None in
          (if not (applied_at_least j.lsn (t0 + secs_ns 30.)) then
             op log ?series ~t0 false (fun () ->
                 Printf.sprintf "lsn %d never applied on the follower" j.lsn)
           else
             let _ = Client.pin c in
             let t1 = now_ns () in
             match Client.lookup_string c j.value with
             | Ok got when got = j.want ->
                 log.attempted <- log.attempted + 1;
                 let t2 = now_ns () in
                 if j.timed then begin
                   sample log "lag" (t2 - j.ack);
                   sample log "confirm" (t2 - t1)
                 end
             | Ok _ ->
                 op log ?series ~t0 false (fun () ->
                     Printf.sprintf "follower misses %S after applying lsn %d"
                       j.value j.lsn)
             | Error e -> op log ?series ~t0 false (fun () -> "follower: " ^ e));
          loop ()
    in
    loop ();
    (c, log)
  in
  let dp = Domain.spawn prober in
  let cw, lw = writer () in
  let cf, lp = Domain.join dp in
  (* end of run: the follower converges to the leader's LSN and both
     answer every written node with its last acked value *)
  let last = Hashtbl.create 256 in
  List.iter (fun (n, v) -> Hashtbl.replace last n v) (List.rev lw.writes);
  let written = Hashtbl.fold (fun n v acc -> (n, v) :: acc) last [] in
  let failed_before = lw.failed + lp.failed in
  (match Client.repl_info cw with
  | Error e -> fail lw ("leader repl-info: " ^ e)
  | Ok li ->
      let lsn = li.Client.durable_lsn in
      let deadline = now_ns () + secs_ns 30. in
      let rec settle () =
        match Client.repl_info cf with
        | Ok fi when fi.Client.applied_lsn >= lsn -> Some fi.Client.applied_lsn
        | _ when now_ns () > deadline -> None
        | _ ->
            Unix.sleepf 0.005;
            settle ()
      in
      let t0 = now_ns () in
      (match settle () with
      | Some a when a = lsn -> op lp ~t0 true (fun () -> "")
      | Some a ->
          op lp ~t0 false (fun () ->
              Printf.sprintf "follower at lsn %d, leader at %d" a lsn)
      | None -> op lp ~t0 false (fun () -> "follower never caught up")));
  ignore (Client.pin cw);
  ignore (Client.pin cf);
  check_values cw lw written;
  check_values cf lp written;
  count lp "end_check_failed" (lw.failed + lp.failed - failed_before);
  Client.close cw;
  Client.close cf;
  [ lw; lp ]

let write_logs path logs =
  let oc = open_out path in
  let attempted = List.fold_left (fun a l -> a + l.attempted) 0 logs in
  let failed = List.fold_left (fun a l -> a + l.failed) 0 logs in
  Printf.fprintf oc "C\tattempted\t%d\nC\tfailed\t%d\n" attempted failed;
  List.iter
    (fun l ->
      Hashtbl.iter
        (fun name b ->
          for i = 0 to b.Buf.n - 1 do
            Printf.fprintf oc "S\t%s\t%d\n" name b.Buf.a.(i)
          done)
        l.series;
      Hashtbl.iter (fun k v -> Printf.fprintf oc "C\t%s\t%d\n" k v) l.counters;
      List.iter (fun m -> Printf.fprintf oc "M\t%s\n" (String.escaped m)) l.msgs;
      List.iter
        (fun (n, v) -> Printf.fprintf oc "W\t%d\t%s\n" n v)
        (List.rev l.writes))
    logs;
  close_out oc
