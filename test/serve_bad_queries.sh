#!/bin/sh
# Serve each line of a query file on its own, printing what the CLI reports
# and its exit status.  Usage: serve_bad_queries.sh CLI QUERY_FILE
cli=$1
while IFS= read -r line; do
  printf '%s\n' "$line" | "$cli" serve - 2>&1
  echo "exit $?"
done < "$2"
