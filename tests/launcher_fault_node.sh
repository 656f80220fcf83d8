#!/bin/sh
# Stand-in for lifting_node that test_launcher passes to lifting_loopback as
# --node-bin. It breaks the handshake of node $LIFTING_FAULT_NODE and runs
# the real daemon ($LIFTING_REAL_NODE) for every other start:
#
#   LIFTING_FAULT_MODE=once    the node's first start prints ERROR and exits
#   LIFTING_FAULT_MODE=always  its first start exits without a line, its
#                              second prints a garbled PORT line and hangs
#
# Every start leaves a file pid.<pid> in $LIFTING_FAULT_DIR (the pid the
# daemon keeps after exec), so the test can check that none is left.
# Invoked as: launcher_fault_node.sh --self <node id>
self="$2"
: > "$LIFTING_FAULT_DIR/pid.$$"
if [ "$self" = "$LIFTING_FAULT_NODE" ]; then
  if [ ! -e "$LIFTING_FAULT_DIR/failed_once" ]; then
    : > "$LIFTING_FAULT_DIR/failed_once"
    [ "$LIFTING_FAULT_MODE" = once ] && echo "ERROR injected handshake failure"
    exit 1
  fi
  if [ "$LIFTING_FAULT_MODE" = always ]; then
    echo "PORT garbled"
    exec sleep 60
  fi
fi
exec "$LIFTING_REAL_NODE" "$@"
