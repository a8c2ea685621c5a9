(* WAL suite: the stable-storage device under seeded crash damage, and
   the server-level durability contract built on it — an acknowledged
   mutation survives any crash, and a torn tail is never applied. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Clock = Idbox_kernel.Clock
module Metrics = Idbox_kernel.Metrics
module Network = Idbox_net.Network
module Fault = Idbox_net.Fault
module Ca = Idbox_auth.Ca
module Credential = Idbox_auth.Credential
module Negotiate = Idbox_auth.Negotiate
module Wal = Idbox_chirp.Wal
module Wire = Idbox_chirp.Wire
module Dedup = Idbox_chirp.Dedup
module Protocol = Idbox_chirp.Protocol
module Principal = Idbox_identity.Principal
module Server = Idbox_chirp.Server
module Client = Idbox_chirp.Client
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

(* --- device-level ----------------------------------------------------- *)

let roundtrip () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "alpha"; "beta"; "gamma" ];
  Wal.sync w;
  Alcotest.(check int) "records" 3 (Wal.records w);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "payloads" [ "alpha"; "beta"; "gamma" ]
    r.Wal.rc_records;
  Alcotest.(check int) "nothing torn" 0 r.Wal.rc_torn_bytes;
  Alcotest.(check bool) "no checkpoint" true (r.Wal.rc_checkpoint = None);
  (* The device continues from the valid prefix. *)
  Wal.append w "delta";
  Wal.sync w;
  Alcotest.(check (list string)) "extended"
    [ "alpha"; "beta"; "gamma"; "delta" ]
    (Wal.recover w).Wal.rc_records

let checkpoint_truncates () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ "a"; "b" ];
  Wal.sync w;
  Wal.checkpoint w "IMAGE";
  Alcotest.(check int) "log truncated" 0 (Wal.records w);
  Alcotest.(check int) "appends keep counting" 2 (Wal.appends w);
  Wal.append w "c";
  Wal.sync w;
  let r = Wal.recover w in
  (match r.Wal.rc_checkpoint with
  | Some img -> Alcotest.(check string) "image" "IMAGE" img
  | None -> Alcotest.fail "checkpoint lost");
  Alcotest.(check (list string)) "post-checkpoint records" [ "c" ]
    r.Wal.rc_records

(* Synced prefix [a; b], unsynced tail [c; d]: whatever the damage does,
   recovery returns a prefix of the appended sequence that includes at
   least the synced records, byte-identical. *)
let crash_respects_sync_barrier () =
  List.iter
    (fun seed ->
      let profile =
        Fault.storage_profile ~torn_write:0.7 ~lose_tail:0.7 ~flip:0.5 ()
      in
      let w = Wal.create ~seed ~profile () in
      let appended = [ "rec-a"; "rec-b"; "rec-c"; "rec-d" ] in
      List.iter (Wal.append w) [ "rec-a"; "rec-b" ];
      Wal.sync w;
      List.iter (Wal.append w) [ "rec-c"; "rec-d" ];
      Wal.crash w;
      let r = Wal.recover w in
      let got = r.Wal.rc_records in
      let n = List.length got in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: synced records survive" seed)
        true (n >= 2);
      List.iteri
        (fun i payload ->
          Alcotest.(check string)
            (Printf.sprintf "seed %Ld: record %d is a clean prefix" seed i)
            (List.nth appended i) payload)
        got)
    [ 1L; 2L; 3L; 7L; 42L; 1337L ]

(* A fully synced log can still grow a torn fragment of an in-flight
   write; recovery discards it by checksum and loses nothing. *)
let phantom_fragment_discarded () =
  let profile = Fault.storage_profile ~torn_write:1.0 () in
  let w = Wal.create ~seed:5L ~profile () in
  List.iter (Wal.append w) [ "x"; "y" ];
  Wal.sync w;
  let clean_bytes = Wal.log_bytes w in
  Wal.crash w;
  Alcotest.(check bool) "fragment appended" true (Wal.log_bytes w > clean_bytes);
  let r = Wal.recover w in
  Alcotest.(check (list string)) "data intact" [ "x"; "y" ] r.Wal.rc_records;
  Alcotest.(check bool) "tear detected" true (r.Wal.rc_torn_bytes > 0);
  Alcotest.(check int) "counted once" 1 r.Wal.rc_torn_records;
  Alcotest.(check int) "log truncated back" clean_bytes (Wal.log_bytes w)

(* Bit corruption in the unsynced suffix: the checksum rejects the
   damaged record, and parsing stops there rather than resynchronising
   onto garbage. *)
let corrupt_record_rejected () =
  List.iter
    (fun seed ->
      let profile = Fault.storage_profile ~flip:1.0 () in
      let w = Wal.create ~seed ~profile () in
      Wal.append w "durable";
      Wal.sync w;
      Wal.append w (String.make 64 'q');
      Wal.crash w;
      let r = Wal.recover w in
      (match r.Wal.rc_records with
      | "durable" :: rest ->
        List.iter
          (fun p ->
            Alcotest.(check string)
              (Printf.sprintf "seed %Ld: accepted record is genuine" seed)
              (String.make 64 'q') p)
          rest
      | _ -> Alcotest.failf "seed %Ld: synced record lost" seed);
      (* Either the record survived intact (flip hit only its future) or
         it was discarded whole — never accepted damaged. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: prefix of appends" seed)
        true
        (List.length r.Wal.rc_records <= 2))
    [ 11L; 12L; 13L ]

(* Determinism: the same seed produces byte-identical damage and
   byte-identical recovery, twice. *)
let crash_is_deterministic () =
  let run () =
    let profile =
      Fault.storage_profile ~torn_write:0.5 ~lose_tail:0.5 ~flip:0.5 ()
    in
    let w = Wal.create ~seed:77L ~profile () in
    for i = 1 to 10 do
      Wal.append w (Printf.sprintf "record-%d-%s" i (String.make 32 'p'));
      if i mod 3 = 0 then Wal.sync w
    done;
    Wal.crash w;
    let r = Wal.recover w in
    (String.concat "|" r.Wal.rc_records, r.Wal.rc_torn_bytes, Wal.log_bytes w)
  in
  let a1, t1, b1 = run () in
  let a2, t2, b2 = run () in
  Alcotest.(check string) "records identical" a1 a2;
  Alcotest.(check int) "torn bytes identical" t1 t2;
  Alcotest.(check int) "log bytes identical" b1 b2

(* --- the device against a string-append model --------------------------

   The log image as one string, rebuilt by appending each frame — the
   device as first written, kept here as the reference.  Random
   append/sync/checkpoint/crash/recover sequences run on both under each
   storage profile, from the same damage seed; every observable (sizes,
   counts, checkpoint image, recovered payloads, torn accounting) must
   agree at every step. *)

module Ref_wal = struct
  let magic = "IDBX"
  let header_len = 44

  type t = {
    mutable log : string;
    mutable synced : int;
    mutable ckpt : string option;
    mutable records : int;
    mutable synced_records : int;
    mutable appends : int;
    rng : Fault.rng;
    profile : Fault.storage_profile;
  }

  let create ~seed ~profile =
    { log = ""; synced = 0; ckpt = None; records = 0; synced_records = 0; appends = 0;
      rng = Fault.rng seed; profile }

  let frame payload =
    Printf.sprintf "%s%08x%s%s" magic (String.length payload)
      (Digest.to_hex (Digest.string payload)) payload

  let append t payload =
    t.log <- t.log ^ frame payload;
    t.records <- t.records + 1;
    t.appends <- t.appends + 1

  let sync t =
    t.synced <- String.length t.log;
    t.synced_records <- t.records

  let checkpoint t blob =
    t.ckpt <- Some blob;
    t.log <- "";
    t.synced <- 0;
    t.records <- 0;
    t.synced_records <- 0

  let len_at s pos = int_of_string_opt ("0x" ^ String.sub s (pos + 4) 8)

  let boundaries s from =
    let n = String.length s in
    let rec go pos acc =
      if pos + header_len > n then List.rev acc
      else
        match len_at s pos with
        | None -> List.rev acc
        | Some len ->
          let next = pos + header_len + len in
          if next > n then List.rev acc else go next (next :: acc)
    in
    go from []

  let crash t =
    let p = t.profile in
    let n = String.length t.log in
    if n > t.synced then begin
      if Fault.chance t.rng p.Fault.lose_tail then begin
        let cuts = t.synced :: boundaries t.log t.synced in
        t.log <- String.sub t.log 0 (List.nth cuts (Fault.int_below t.rng (List.length cuts)))
      end;
      let n = String.length t.log in
      if n > t.synced && Fault.chance t.rng p.Fault.torn_write then begin
        let cut = t.synced + 1 + Fault.int_below t.rng (n - t.synced) in
        t.log <- String.sub t.log 0 (min cut n)
      end;
      let n = String.length t.log in
      if n > t.synced && Fault.chance t.rng p.Fault.flip then
        t.log <-
          String.sub t.log 0 t.synced
          ^ Fault.flip_bytes t.rng (String.sub t.log t.synced (n - t.synced))
    end
    else if Fault.chance t.rng p.Fault.torn_write then begin
      let junk_len = 1 + Fault.int_below t.rng 48 in
      let junk =
        String.init junk_len (fun _ ->
            Char.chr (Int64.to_int (Int64.logand (Fault.bits t.rng) 0xffL)))
      in
      t.log <- t.log ^ Printf.sprintf "%s%08x%s" magic (junk_len + 64) junk
    end;
    t.synced <- String.length t.log

  let recover t =
    let s = t.log in
    let n = String.length s in
    let rec go pos acc =
      if pos + header_len > n || not (String.equal (String.sub s pos 4) magic) then (pos, List.rev acc)
      else
        match len_at s pos with
        | None -> (pos, List.rev acc)
        | Some len ->
          let body = pos + header_len in
          if body + len > n then (pos, List.rev acc)
          else
            let payload = String.sub s body len in
            if String.equal (String.sub s (pos + 12) 32) (Digest.to_hex (Digest.string payload))
            then go (body + len) (payload :: acc)
            else (pos, List.rev acc)
    in
    let valid_end, payloads = go 0 [] in
    let torn = n - valid_end in
    t.log <- String.sub s 0 valid_end;
    t.synced <- valid_end;
    t.records <- List.length payloads;
    t.synced_records <- t.records;
    (t.ckpt, payloads, (if torn > 0 then 1 else 0), torn)
end

let storage_profiles =
  [
    ("calm", Fault.calm_storage);
    ("torn", Fault.storage_profile ~torn_write:0.8 ());
    ("lose", Fault.storage_profile ~lose_tail:0.8 ());
    ("flip", Fault.storage_profile ~flip:0.8 ());
    ("hostile", Fault.storage_profile ~torn_write:0.7 ~lose_tail:0.7 ~flip:0.5 ());
  ]

let wal_matches_string_model =
  let step = QCheck.Gen.(pair (int_bound 9) (string_size ~gen:printable (int_bound 40))) in
  QCheck.Test.make ~name:"WAL = string-append model under every storage profile" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_bound 1000) (list_size (int_range 5 60) step)))
    (fun (seed, steps) ->
      List.for_all
        (fun (name, profile) ->
          let seed = Int64.of_int seed in
          let w = Wal.create ~seed ~profile () and r = Ref_wal.create ~seed ~profile in
          let same what a b =
            if a <> b then QCheck.Test.fail_reportf "%s: %s differs from the model" name what
          in
          List.iter
            (fun (kind, payload) ->
              (match kind with
               | 0 | 1 | 2 | 3 ->
                 Wal.append w payload;
                 Ref_wal.append r payload
               | 4 | 5 ->
                 Wal.sync w;
                 Ref_wal.sync r
               | 6 ->
                 Wal.checkpoint w ("image:" ^ payload);
                 Ref_wal.checkpoint r ("image:" ^ payload)
               | 7 ->
                 Wal.crash w;
                 Ref_wal.crash r
               | _ ->
                 let peek = Wal.logged_records w in
                 let got = Wal.recover w in
                 same "logged records" peek got.Wal.rc_records;
                 same "recovery"
                   (got.Wal.rc_checkpoint, got.Wal.rc_records, got.Wal.rc_torn_records,
                    got.Wal.rc_torn_bytes)
                   (Ref_wal.recover r));
              same "log bytes" (Wal.log_bytes w) (String.length r.Ref_wal.log);
              same "records" (Wal.records w, Wal.synced_records w, Wal.appends w)
                (r.Ref_wal.records, r.Ref_wal.synced_records, r.Ref_wal.appends);
              same "checkpoint image" (Wal.checkpoint_image w) r.Ref_wal.ckpt;
              (* A peek between steps must leave nothing for the model to see. *)
              ignore (Wal.logged_records w))
            steps;
          Wal.crash w;
          Ref_wal.crash r;
          let got = Wal.recover w in
          same "final recovery"
            (got.Wal.rc_checkpoint, got.Wal.rc_records, got.Wal.rc_torn_records, got.Wal.rc_torn_bytes)
            (Ref_wal.recover r);
          true)
        storage_profiles)

(* An IDBX header length in any form but eight lowercase hex digits is
   refused, even with a matching checksum: each of these once parsed
   through [int_of_string]. *)
let idbx_length_forms =
  [ ("digit separator", "0000_003", "abc"); ("upper-case hex", "0000000A", "abcdefghij") ]

let idbx_rejects_length_form header payload () =
  let blob = "IDBX" ^ header ^ Digest.to_hex (Digest.string payload) ^ payload in
  match Wal.parse_segment blob with
  | Error `Damaged -> ()
  | Ok _ -> Alcotest.failf "segment with length %S accepted" header

(* --- the dedup journal against a fold-and-sort model ---------------------

   The journal as first written: a table swept by a full fold, its image
   sorted and re-encoded at each checkpoint.  Random add/expire/restart
   sequences — times drawn a little behind the clock as well as at it,
   the way the event-driven server records a parked operation at its
   admission time — must give the same evictions, lookups and image
   bytes. *)

module Ref_dedup = struct
  type t = (string, int64 * string) Hashtbl.t

  let expire (t : t) ~now ~window =
    let dead =
      Hashtbl.fold (fun rid (at, _) acc -> if Int64.sub now at > window then rid :: acc else acc) t []
    in
    List.iter (Hashtbl.remove t) dead;
    List.length dead

  let image (t : t) =
    Hashtbl.fold (fun rid d acc -> (rid, d) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.concat_map (fun (rid, (at, resp)) -> [ rid; Int64.to_string at; resp ])
    |> Wire.encode
end

let dedup_matches_reference =
  let step = QCheck.Gen.(triple (int_bound 9) (int_bound 40) (int_bound 3_000)) in
  QCheck.Test.make ~name:"dedup journal = fold-and-sort model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 10 150) step))
    (fun steps ->
      let window = 5_000L in
      let j = Dedup.create () and r : Ref_dedup.t = Hashtbl.create 16 in
      let now = ref 10_000L in
      let same what a b = if a <> b then QCheck.Test.fail_reportf "%s differs" what in
      List.iter
        (fun (kind, key, dt) ->
          let rid = Printf.sprintf "c%d:%d" (key mod 3) key in
          (match kind with
           | 0 | 1 | 2 | 3 ->
             (* At the clock, or up to 3 us behind it (out of order). *)
             let at = Int64.sub !now (Int64.of_int (if kind = 0 then dt else 0)) in
             let resp = Printf.sprintf "ok-%d-%Ld" key at in
             Dedup.add j rid ~at resp;
             Hashtbl.replace r rid (at, resp)
           | 4 | 5 -> now := Int64.add !now (Int64.of_int dt)
           | 6 | 7 ->
             same "evictions"
               (Dedup.expire j ~now:!now ~window)
               (Ref_dedup.expire r ~now:!now ~window)
           | 8 ->
             (* Restart: the journal comes back from its image alone. *)
             let buf = Buffer.create 64 in
             Dedup.add_image j buf;
             Dedup.clear j;
             Dedup.restore j (Buffer.contents buf)
           | _ ->
             same "lookup" (Dedup.find j rid) (Option.map snd (Hashtbl.find_opt r rid)));
          same "size" (Dedup.size j) (Hashtbl.length r);
          let buf = Buffer.create 64 in
          Dedup.add_image j buf;
          same "image size" (Dedup.image_size j) (Buffer.length buf);
          same "image" (Buffer.contents buf) (Ref_dedup.image r))
        steps;
      true)

(* --- server-level ----------------------------------------------------- *)

let server_addr = "wal.nowhere.edu:9094"

let make_server ?wal ?checkpoint_every ?event_driven ?dedup_window_ns () =
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock () in
  let net =
    Network.create ~clock ~metrics:(Kernel.metrics kernel)
      ~trace:(Kernel.trace_ring kernel) ()
  in
  let owner =
    match Account.add (Kernel.accounts kernel) "chirpuser" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Kernel.refresh_passwd kernel;
  let ca = Ca.create ~name:"UnivNowhere CA" in
  let root_acl =
    Acl.of_entries
      [
        Entry.make ~pattern:"globus:/O=UnivNowhere/*"
          ~reserve:(Rights.of_string_exn "rwlaxd")
          (Rights.of_string_exn "rl");
      ]
  in
  let acceptor = Negotiate.acceptor ~trusted_cas:[ ca ] () in
  let server =
    match
      Server.create ~kernel ~net ~addr:server_addr ~owner_uid:owner.Account.uid
        ~export:"/tmp/export" ~acceptor ~root_acl ?wal ?checkpoint_every
        ?event_driven ?dedup_window_ns ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  (server, net, kernel, ca)

let connect net ca =
  let cert = Ca.issue ca (Subject.of_string_exn "/O=UnivNowhere/CN=Fred") in
  match
    Client.connect net ~addr:server_addr ~credentials:[ Credential.Gsi cert ]
  with
  | Ok c -> c
  | Error m -> Alcotest.fail m

(* The durability acceptance property, across seeds: every mutation the
   server ACKNOWLEDGED before the crash reads back after recovery, and
   nothing that was never written appears.  The storage profile is
   hostile (tears, lost tails, bit flips), but damage is confined to
   unacknowledged state by the sync-before-reply rule. *)
let acked_mutations_survive_crash () =
  List.iter
    (fun seed ->
      let profile =
        Fault.storage_profile ~torn_write:0.8 ~lose_tail:0.8 ~flip:0.5 ()
      in
      let wal = Wal.create ~seed ~profile () in
      let server, net, kernel, ca = make_server ~wal () in
      let c = connect net ca in
      ok "mkdir" (Client.mkdir c "/work");
      for i = 1 to 6 do
        ok "put"
          (Client.put c
             ~path:(Printf.sprintf "/work/f%d" i)
             ~data:(Printf.sprintf "payload-%d-%Ld" i seed))
      done;
      Server.crash server;
      Server.restart server;
      let c = connect net ca in
      for i = 1 to 6 do
        Alcotest.(check string)
          (Printf.sprintf "seed %Ld: f%d survives" seed i)
          (Printf.sprintf "payload-%d-%Ld" i seed)
          (ok "get" (Client.get c (Printf.sprintf "/work/f%d" i)))
      done;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld: no phantom files" seed)
        [ "f1"; "f2"; "f3"; "f4"; "f5"; "f6" ]
        (List.sort String.compare (ok "readdir" (Client.readdir c "/work")));
      let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: recovery accounted" seed)
        true
        (m "chirp.recovery.checkpoint_loads" > 0
        && m "chirp.recovery.replayed" >= 0))
    [ 2005L; 2006L; 2007L ]

(* Checkpoints bound replay: force a checkpoint, then only the records
   logged after it replay on recovery. *)
let checkpoint_bounds_replay () =
  let server, net, kernel, ca = make_server ~checkpoint_every:10_000 () in
  let c = connect net ca in
  ok "mkdir" (Client.mkdir c "/work");
  for i = 1 to 8 do
    ok "put" (Client.put c ~path:(Printf.sprintf "/work/a%d" i) ~data:"x")
  done;
  ok "checkpoint" (Server.checkpoint_now server);
  Alcotest.(check int) "log truncated" 0 (Server.wal_records server);
  for i = 1 to 3 do
    ok "put" (Client.put c ~path:(Printf.sprintf "/work/b%d" i) ~data:"y")
  done;
  Server.crash server;
  Server.restart server;
  let m name = Metrics.counter_value_of (Kernel.metrics kernel) name in
  (* Three puts after the checkpoint: one "op" + one "done" record each.
     The eight pre-checkpoint puts come back from the image alone. *)
  Alcotest.(check int) "replayed only the tail" 3 (m "chirp.recovery.replayed");
  let c = connect net ca in
  Alcotest.(check string) "image data" "x" (ok "get" (Client.get c "/work/a8"));
  Alcotest.(check string) "replayed data" "y" (ok "get" (Client.get c "/work/b3"))

(* Un-synced state really dies: a file written behind the WAL's back
   (directly into the export, never logged) does not survive a crash —
   the restart-semantics fix this suite exists to pin down. *)
let unlogged_state_dies () =
  let server, net, kernel, ca = make_server () in
  let c = connect net ca in
  ok "mkdir" (Client.mkdir c "/work");
  ok "put" (Client.put c ~path:"/work/logged" ~data:"stays");
  (* Sneak a file into the export behind the server's back: no WAL
     record, no checkpoint — exactly the state the old restart let
     survive by fiat. *)
  ok "sneak"
    (Idbox_vfs.Fs.write_file (Kernel.fs kernel)
       ~uid:(Server.owner_uid server) "/tmp/export/work/sneak" "dies");
  Alcotest.(check (list string)) "sneak visible before crash"
    [ "logged"; "sneak" ]
    (List.sort String.compare (ok "readdir" (Client.readdir c "/work")));
  Server.crash server;
  Server.restart server;
  let c = connect net ca in
  Alcotest.(check string) "logged file survives" "stays"
    (ok "get" (Client.get c "/work/logged"));
  Alcotest.(check (list string)) "nothing else" [ "logged" ]
    (List.sort String.compare (ok "readdir" (Client.readdir c "/work")))

(* The server's journal, end to end: mutations through the event-driven
   server (recorded at admission time when the batch flushes) and
   geo-shipped applies at the current time, a checkpoint, more of both,
   then a crash and restart — the journal returns from the image in id
   order and from the WAL's done records after it — and more churn with
   the clock moving past the dedup window.  The reference is fed every
   entry the server recorded (the done records in the WAL, the shipped
   applies' own responses) and every sweep at the time it ran; the
   eviction counter and each checkpoint's journal bytes must match it. *)
let server_dedup_matches_reference () =
  let window = 3_000_000L in
  let wal = Wal.create () in
  let server, net, kernel, ca =
    make_server ~wal ~checkpoint_every:10_000 ~event_driven:true ~dedup_window_ns:window ()
  in
  let clock = Kernel.clock kernel in
  let r : Ref_dedup.t = Hashtbl.create 64 in
  let evicted = ref 0 in
  let record ~now rid at resp =
    evicted := !evicted + Ref_dedup.expire r ~now ~window;
    Hashtbl.replace r rid (at, resp)
  in
  let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred" in
  let seen_done = Hashtbl.create 64 in
  let st = Random.State.make [| 14 |] in
  let c = ref (connect net ca) in
  let absorb_done () =
    List.iter
      (fun rec_ ->
        match Wire.decode rec_ with
        | Ok [ "done"; rid; at; resp ] when not (Hashtbl.mem seen_done rid) ->
          Hashtbl.replace seen_done rid ();
          let at = Int64.of_string at in
          (* A client mutation sweeps at its admission time, which is the
             time its done record carries. *)
          record ~now:at rid at resp
        | _ -> ())
      (Wal.logged_records wal)
  in
  ok "mkdir" (Client.mkdir !c "/j");
  absorb_done ();
  let geo = ref 0 in
  let churn n =
    for _ = 1 to n do
      (match Random.State.int st 3 with
       | 0 ->
         incr geo;
         let now = Clock.now clock in
         let req_id = Printf.sprintf "geo-%04d" !geo in
         let resp, fresh =
           Server.apply_shipped server ~identity:fred ~req_id
             (Protocol.Put { path = Printf.sprintf "/j/g%d" (!geo mod 7); data = "g" })
         in
         Alcotest.(check bool) "fresh apply" true fresh;
         Hashtbl.replace seen_done req_id ();
         record ~now req_id now resp
       | _ ->
         ok "put"
           (Client.put !c ~path:(Printf.sprintf "/j/f%d" (Random.State.int st 9)) ~data:"x");
         absorb_done ());
      Clock.advance clock (Int64.of_int (Random.State.int st 400_000))
    done
  in
  let journal () =
    match Option.map Wire.decode (Wal.checkpoint_image wal) with
    | Some (Ok (journal :: _)) -> journal
    | _ -> Alcotest.fail "no decodable checkpoint image"
  in
  let check_image what =
    ok "checkpoint" (Server.checkpoint_now server);
    Alcotest.(check string) what (Ref_dedup.image r) (journal ())
  in
  churn 40;
  check_image "journal after the first churn";
  churn 40;
  (* Recovery rebuilds the journal from the image, then from every done
     record logged since — entries swept in between come back too. *)
  Hashtbl.reset r;
  (match Wire.decode (journal ()) with
   | Ok fields ->
     let rec go = function
       | rid :: at :: resp :: rest ->
         Hashtbl.replace r rid (Int64.of_string at, resp);
         go rest
       | _ -> ()
     in
     go fields
   | Error m -> Alcotest.fail m);
  List.iter
    (fun rec_ ->
      match Wire.decode rec_ with
      | Ok [ "done"; rid; at; resp ] -> Hashtbl.replace r rid (Int64.of_string at, resp)
      | _ -> ())
    (Wal.logged_records wal);
  Server.crash server;
  Server.restart server;
  c := connect net ca;
  churn 60;
  check_image "journal after restart and expiry";
  let m = Metrics.counter_value_of (Kernel.metrics kernel) "chirp.dedup_evictions" in
  Alcotest.(check bool) "entries expired" true (!evicted > 0);
  Alcotest.(check int) "eviction counter" !evicted m

(* A checkpoint's image is encoded only when recovery (or this test)
   reads it.  It must hold the state at the checkpoint, not whatever the
   server has become by the time it is read: files overwritten, ACLs
   edited, journal entries added and expired and an epoch bumped after
   the checkpoint all stay out of it.  The reference is the image an
   eager encoder writes at checkpoint time, from the server's public
   snapshot and epochs and the journal's done records. *)
let deferred_checkpoint_captures_state () =
  let wal = Wal.create () in
  let server, net, kernel, ca =
    make_server ~wal ~checkpoint_every:10_000 ~dedup_window_ns:50_000_000L ()
  in
  let clock = Kernel.clock kernel in
  let metric name = Metrics.counter_value_of (Kernel.metrics kernel) name in
  let c = connect net ca in
  let fred_name = "globus:/O=UnivNowhere/CN=Fred" in
  let fred = Principal.of_string fred_name in
  let ship i data =
    ignore
      (Server.apply_shipped server ~identity:fred ~req_id:(Printf.sprintf "geo-%02d" i)
         (Protocol.Put { path = Printf.sprintf "/j/g%d" (i mod 3); data }))
  in
  let put i data = ok "put" (Client.put c ~path:(Printf.sprintf "/j/f%d" i) ~data) in
  ok "mkdir" (Client.mkdir c "/j");
  for i = 0 to 5 do
    put i (Printf.sprintf "v%d" i);
    ship i "g"
  done;
  ok "setacl" (Client.setacl c ~path:"/j" ~entry:"globus:/O=UnivNowhere/CN=Jane rl");
  ignore (ok "revoke" (Client.revoke c fred_name));
  let snapshot () =
    match Server.snapshot_subtree server "/" with
    | Ok entries -> entries
    | Error e -> Alcotest.failf "snapshot: %s" (Errno.to_string e)
  in
  let reference =
    (* Nothing has expired yet: the journal is every done record logged
       since the creation checkpoint. *)
    let r : Ref_dedup.t = Hashtbl.create 16 in
    List.iter
      (fun record ->
        match Wire.decode record with
        | Ok [ "done"; rid; at; resp ] -> Hashtbl.replace r rid (Int64.of_string at, resp)
        | _ -> ())
      (Wal.logged_records wal);
    Alcotest.(check int) "journal size at the checkpoint" (Server.dedup_size server) (Hashtbl.length r);
    let revocations =
      Wire.encode
        ("revocations"
        :: List.concat_map (fun (d, e) -> [ d; string_of_int e ]) (Server.epoch_entries server))
    in
    let entry = function
      | Server.Snap_dir { path; acl } -> Wire.encode [ "d"; path; acl ]
      | Server.Snap_file { path; data } -> Wire.encode [ "f"; path; data ]
    in
    Wire.encode (Ref_dedup.image r :: revocations :: List.map entry (snapshot ()))
  in
  ok "checkpoint" (Server.checkpoint_now server);
  (* Past the dedup window: the next mutation expires the whole journal. *)
  Clock.advance clock 100_000_000L;
  let evicted0 = metric "chirp.dedup_evictions" in
  for i = 0 to 5 do
    put i (Printf.sprintf "w%d" i);
    ship (10 + i) "h"
  done;
  Alcotest.(check bool) "journal entries expired" true (metric "chirp.dedup_evictions" > evicted0);
  ok "acl edit" (Client.setacl c ~path:"/j" ~entry:"globus:/O=UnivNowhere/CN=Jane rwl");
  ignore (ok "revoke again" (Client.revoke c fred_name));
  (match Wal.checkpoint_image wal with
   | Some image ->
     Alcotest.(check int) "image length" (String.length reference) (String.length image);
     Alcotest.(check bool) "image = eager encoding at checkpoint time" true
       (String.equal reference image)
   | None -> Alcotest.fail "no checkpoint image");
  (* Recovery loads that image and replays the log written since: the
     state is the live state before the crash (every record was synced
     before its ack). *)
  let live = snapshot () and epochs = Server.epoch_entries server in
  let loads = metric "chirp.recovery.checkpoint_loads" in
  Server.crash server;
  Server.restart server;
  Alcotest.(check int) "checkpoint loaded" (loads + 1) (metric "chirp.recovery.checkpoint_loads");
  Alcotest.(check bool) "files and ACLs = checkpoint + replayed log" true (live = snapshot ());
  Alcotest.(check (list (pair string int))) "epochs = checkpoint + replayed log" epochs
    (Server.epoch_entries server)

let suite =
  [
    QCheck_alcotest.to_alcotest wal_matches_string_model;
    QCheck_alcotest.to_alcotest dedup_matches_reference;
    Alcotest.test_case "server dedup journal = reference (async, restart)" `Quick
      server_dedup_matches_reference;
    Alcotest.test_case "deferred checkpoint image captures state" `Quick
      deferred_checkpoint_captures_state;
    Alcotest.test_case "roundtrip" `Quick roundtrip;
    Alcotest.test_case "checkpoint truncates" `Quick checkpoint_truncates;
    Alcotest.test_case "crash respects sync barrier" `Quick
      crash_respects_sync_barrier;
    Alcotest.test_case "phantom fragment discarded" `Quick
      phantom_fragment_discarded;
    Alcotest.test_case "corrupt record rejected" `Quick corrupt_record_rejected;
    Alcotest.test_case "crash is deterministic" `Quick crash_is_deterministic;
    Alcotest.test_case "acked mutations survive crash (3 seeds)" `Quick
      acked_mutations_survive_crash;
    Alcotest.test_case "checkpoint bounds replay" `Quick checkpoint_bounds_replay;
    Alcotest.test_case "unlogged state dies" `Quick unlogged_state_dies;
  ]
  @ List.map
      (fun (form, header, payload) ->
        Alcotest.test_case ("segment rejects length: " ^ form) `Quick
          (idbx_rejects_length_form header payload))
      idbx_length_forms
