module Wire = Idbox_chirp.Wire
module Protocol = Idbox_chirp.Protocol
module Credential = Idbox_auth.Credential
module Ca = Idbox_auth.Ca
module Kerberos = Idbox_auth.Kerberos
module Subject = Idbox_identity.Subject
module Errno = Idbox_vfs.Errno

(* --- wire framing ----------------------------------------------------- *)

let wire_roundtrip_cases () =
  List.iter
    (fun fields ->
      match Wire.decode (Wire.encode fields) with
      | Ok decoded ->
        Alcotest.(check (list string)) "roundtrip" fields decoded
      | Error m -> Alcotest.fail m)
    [
      [];
      [ "" ];
      [ "a" ];
      [ "put"; "/work/sim.exe"; "binary\000data:with:colons\n" ];
      [ "x"; ""; "y" ];
    ]

let wire_rejects_garbage () =
  List.iter
    (fun text ->
      match Wire.decode text with
      | Error _ -> ()
      | Ok fields ->
        (* A decode may only succeed if re-encoding gives the input back. *)
        if not (String.equal (Wire.encode fields) text) then
          Alcotest.failf "%S decoded loosely" text)
    [ "5:ab"; "x:ab"; "3ab"; "-1:"; "2:ab3:c" ]

(* A field length in any form but the one [Wire.encode] writes is
   refused: each of these once decoded as "abc" through
   [int_of_string]. *)
let wire_length_forms =
  [
    ("hex prefix", "0x3:abc");
    ("plus sign", "+3:abc");
    ("digit separator", "0_3:abc");
    ("leading zero", "03:abc");
    ("binary prefix", "0b11:abc");
    ("unsigned prefix", "0u3:abc");
  ]

let wire_rejects_length_form text () =
  match Wire.decode text with
  | Error _ -> ()
  | Ok fields -> Alcotest.failf "%S decoded as [%s]" text (String.concat "; " fields)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip on arbitrary fields" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6)
       (QCheck.string_of_size (QCheck.Gen.int_range 0 40)))
    (fun fields ->
      match Wire.decode (Wire.encode fields) with
      | Ok decoded -> decoded = fields
      | Error _ -> false)

(* [Wire.encode] writes into one exact-size buffer; this is the
   grow-and-copy form it replaced, whose bytes it must reproduce. *)
let reference_encode fields =
  let buf = Buffer.create 64 in
  List.iter
    (fun f ->
      Buffer.add_string buf (string_of_int (String.length f));
      Buffer.add_char buf ':';
      Buffer.add_string buf f)
    fields;
  Buffer.contents buf

let wire_encode_matches_reference_cases () =
  let around n = [ n - 1; n; n + 1 ] in
  let lengths = 0 :: List.concat_map around [ 10; 100; 1000; 10_000; 100_000 ] in
  List.iter
    (fun fields ->
      Alcotest.(check string)
        (Printf.sprintf "[%s]" (String.concat ";" (List.map (fun f -> string_of_int (String.length f)) fields)))
        (reference_encode fields) (Wire.encode fields))
    ([] :: [ "" ] :: [ ""; "" ] :: List.map (fun n -> [ String.make n 'z'; ""; "x" ]) lengths)

let prop_wire_encode_matches_reference =
  let len = QCheck.Gen.(oneof [ int_range 0 12; int_range 95 105; int_range 995 1005 ]) in
  QCheck.Test.make ~name:"wire encode = Buffer reference" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) (QCheck.string_gen_of_size len QCheck.Gen.char))
    (fun fields -> String.equal (reference_encode fields) (Wire.encode fields))

(* --- protocol messages ------------------------------------------------ *)

let ops =
  [
    Protocol.Mkdir "/work";
    Protocol.Rmdir "/work";
    Protocol.Unlink "/work/f";
    Protocol.Put { path = "/work/sim.exe"; data = "exe\000bits" };
    Protocol.Get "/work/out.dat";
    Protocol.Stat "/work";
    Protocol.Readdir "/";
    Protocol.Getacl "/work";
    Protocol.Setacl { path = "/work"; entry = "globus:/O=X/* rl" };
    Protocol.Rename { src = "/a"; dst = "/b" };
    Protocol.Exec { path = "/work/sim.exe"; args = [ "sim.exe"; "-n"; "5" ]; cwd = "/work" };
    Protocol.Checksum "/work/blob";
    Protocol.Whoami;
  ]

let request_roundtrip () =
  List.iter
    (fun op ->
      let req_id = if Protocol.idempotent op then "" else "tok123#1" in
      let req = Protocol.Op { token = "tok123"; req_id; op } in
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok (Protocol.Op { token; req_id = rid; op = op' }) ->
        Alcotest.(check string) "token" "tok123" token;
        Alcotest.(check string) "req_id" req_id rid;
        Alcotest.(check bool) (Protocol.operation_name op) true (op = op')
      | Ok (Protocol.Auth _) -> Alcotest.fail "became auth"
      | Error m -> Alcotest.fail m)
    ops

let auth_roundtrip_all_credentials () =
  let ca = Ca.create ~name:"CA" in
  let cert = Ca.issue ca (Subject.of_string_exn "/O=X/CN=F") in
  let realm = Kerberos.create ~realm:"R" in
  Kerberos.add_user realm "u" ~password:"p";
  let ticket =
    match Kerberos.login realm ~user:"u" ~password:"p" ~now:5L with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let creds =
    [
      Credential.Gsi cert;
      Credential.Krb ticket;
      Credential.Unix_account "dthain";
      Credential.Host "laptop.nowhere.edu";
    ]
  in
  match Protocol.decode_request (Protocol.encode_request (Protocol.Auth creds)) with
  | Ok (Protocol.Auth decoded) ->
    Alcotest.(check int) "count" 4 (List.length decoded);
    (* The decoded GSI certificate still verifies against the CA. *)
    (match List.hd decoded with
     | Credential.Gsi cert' ->
       Alcotest.(check bool) "signature survives wire" true (Ca.verify ca cert')
     | _ -> Alcotest.fail "first credential changed kind");
    (* The decoded ticket still verifies against the realm. *)
    (match List.nth decoded 1 with
     | Credential.Krb t' ->
       Alcotest.(check bool) "stamp survives wire" true (Kerberos.verify realm t' ~now:5L)
     | _ -> Alcotest.fail "second credential changed kind")
  | Ok _ -> Alcotest.fail "became op"
  | Error m -> Alcotest.fail m

let response_roundtrip () =
  let responses =
    [
      Protocol.R_ok;
      Protocol.R_error (Errno.EACCES, "denied");
      Protocol.R_auth { token = "t"; principal = "globus:/O=X/CN=F"; method_ = "globus" };
      Protocol.R_data "bulk\000payload";
      Protocol.R_stat { Protocol.ws_kind = "file"; ws_size = 42; ws_mtime = 7L };
      Protocol.R_names [ "a"; "b"; "c" ];
      Protocol.R_names [];
      Protocol.R_exit 3;
      Protocol.R_str "globus:/O=X/CN=F";
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error m -> Alcotest.fail m)
    responses

let batch_roundtrip () =
  let members =
    [
      Protocol.Get "/work/blob";
      Protocol.Put { path = "/work/out"; data = "x" };
      Protocol.Stat "/work";
      Protocol.Whoami;
    ]
  in
  let op = Protocol.Batch members in
  Alcotest.(check bool) "mixed batch is not idempotent" false
    (Protocol.idempotent op);
  Alcotest.(check bool) "read-only batch is idempotent" true
    (Protocol.idempotent
       (Protocol.Batch [ Protocol.Get "/a"; Protocol.Stat "/b" ]));
  Alcotest.(check string) "routes by first member" "/work/blob"
    (Protocol.operation_path op);
  let req = Protocol.Op { token = "tok"; req_id = "tok#1"; op } in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Ok (Protocol.Op { op = Protocol.Batch members'; _ }) ->
     Alcotest.(check bool) "members survive the wire" true (members = members')
   | Ok _ -> Alcotest.fail "decoded to something else"
   | Error m -> Alcotest.fail m);
  let r =
    Protocol.R_batch
      [
        Protocol.R_data "bulk";
        Protocol.R_ok;
        Protocol.R_error (Errno.EACCES, "denied");
        Protocol.R_str "who";
      ]
  in
  match Protocol.decode_response (Protocol.encode_response r) with
  | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
  | Error m -> Alcotest.fail m

let nested_batch_rejected () =
  let nested = Protocol.Batch [ Protocol.Batch [ Protocol.Get "/a" ] ] in
  let req = Protocol.Op { token = "tok"; req_id = ""; op = nested } in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "nested batch request accepted");
  let r = Protocol.R_batch [ Protocol.R_batch [ Protocol.R_ok ] ] in
  match Protocol.decode_response (Protocol.encode_response r) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested batch response accepted"

let delegated_roundtrip_and_guards () =
  let ca = Ca.create ~name:"Grid CA" in
  let tok =
    Idbox_auth.Delegation.mint ca ~delegator:"globus:/O=Grid/CN=A"
      ~delegatee:"globus:/O=Grid/CN=B"
      ~rights:(Idbox_acl.Rights.of_string_exn "rx")
      ~prefix:"/work" ~now:3L ~ttl_ns:100L ~hops:2 ()
  in
  let op =
    Protocol.Delegated
      { chain = [ tok ]; op = Protocol.Exec { path = "/work/sim.exe";
                                              args = [ "sim.exe" ];
                                              cwd = "/work" } }
  in
  Alcotest.(check bool) "delegated exec is not idempotent" false
    (Protocol.idempotent op);
  Alcotest.(check bool) "delegated read is idempotent" true
    (Protocol.idempotent
       (Protocol.Delegated { chain = [ tok ]; op = Protocol.Whoami }));
  Alcotest.(check string) "routes by the inner operation" "/work/sim.exe"
    (Protocol.operation_path op);
  let req = Protocol.Op { token = "tok"; req_id = "tok#1"; op } in
  (match Protocol.decode_request (Protocol.encode_request req) with
   | Ok (Protocol.Op { op = Protocol.Delegated { chain; op = inner }; _ }) ->
     Alcotest.(check bool) "chain survives the wire" true (chain = [ tok ]);
     Alcotest.(check bool) "inner op survives the wire" true
       (inner = Protocol.Exec { path = "/work/sim.exe"; args = [ "sim.exe" ];
                                cwd = "/work" })
   | Ok _ -> Alcotest.fail "decoded to something else"
   | Error m -> Alcotest.fail m);
  (* Structural guards, enforced at decode: no delegation inside a
     batch, no batch inside a delegation, no nested delegation. *)
  List.iter
    (fun (ctx, bad) ->
      match
        Protocol.decode_request
          (Protocol.encode_request
             (Protocol.Op { token = "tok"; req_id = ""; op = bad }))
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" ctx)
    [
      ("delegated inside a batch",
       Protocol.Batch
         [ Protocol.Delegated { chain = [ tok ]; op = Protocol.Whoami } ]);
      ("batch inside a delegated",
       Protocol.Delegated
         { chain = [ tok ]; op = Protocol.Batch [ Protocol.Whoami ] });
      ("nested delegation",
       Protocol.Delegated
         { chain = [ tok ];
           op = Protocol.Delegated { chain = [ tok ]; op = Protocol.Whoami } });
    ];
  (* Revoke routes by the root key and replicates; Epoch is a read. *)
  Alcotest.(check string) "revoke routes by the root key" "/"
    (Protocol.operation_path (Protocol.Revoke "globus:/O=Grid/CN=A"));
  Alcotest.(check bool) "revoke is not idempotent" false
    (Protocol.idempotent (Protocol.Revoke "globus:/O=Grid/CN=A"));
  Alcotest.(check bool) "epoch is idempotent" true
    (Protocol.idempotent (Protocol.Epoch "globus:/O=Grid/CN=A"));
  match
    Protocol.decode_request
      (Protocol.encode_request
         (Protocol.Op { token = "t"; req_id = "t#2";
                        op = Protocol.Revoke "globus:/O=Grid/CN=A" }))
  with
  | Ok (Protocol.Op { op = Protocol.Revoke who; _ }) ->
    Alcotest.(check string) "revoke roundtrip" "globus:/O=Grid/CN=A" who
  | Ok _ -> Alcotest.fail "revoke decoded to something else"
  | Error m -> Alcotest.fail m

let malformed_messages_rejected () =
  List.iter
    (fun text ->
      match Protocol.decode_request text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "request %S accepted" text)
    [ ""; "4:oops"; Wire.encode [ "op" ]; Wire.encode [ "op"; "tok"; "zap" ] ];
  List.iter
    (fun text ->
      match Protocol.decode_response text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "response %S accepted" text)
    [ ""; Wire.encode [ "error"; "EWAT"; "m" ]; Wire.encode [ "exit"; "NaN" ] ]

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick wire_roundtrip_cases;
    Alcotest.test_case "wire rejects garbage" `Quick wire_rejects_garbage;
  ]
  @ List.map
      (fun (form, text) ->
        Alcotest.test_case ("wire rejects length: " ^ form) `Quick
          (wire_rejects_length_form text))
      wire_length_forms
  @ [
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "wire encode = reference at length boundaries" `Quick
      wire_encode_matches_reference_cases;
    QCheck_alcotest.to_alcotest prop_wire_encode_matches_reference;
    Alcotest.test_case "request roundtrip" `Quick request_roundtrip;
    Alcotest.test_case "auth roundtrip" `Quick auth_roundtrip_all_credentials;
    Alcotest.test_case "response roundtrip" `Quick response_roundtrip;
    Alcotest.test_case "malformed rejected" `Quick malformed_messages_rejected;
    Alcotest.test_case "batch roundtrip" `Quick batch_roundtrip;
    Alcotest.test_case "nested batch rejected" `Quick nested_batch_rejected;
    Alcotest.test_case "delegated roundtrip and structural guards" `Quick
      delegated_roundtrip_and_guards;
  ]
