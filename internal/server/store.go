package server

import (
	"context"
	"errors"
	"log/slog"

	"socyield/internal/store"
	"socyield/internal/yield"
)

// The persistent store is the second cache tier. The in-memory LRU
// holds live Reevaluators; the store holds their encoded snapshots on
// disk, keyed by the same yield.ModelKey. The flow:
//
//	LRU hit                   → serve (microseconds)
//	LRU miss, store hit       → decode + restore (milliseconds)
//	LRU miss, store miss      → compile (seconds), then write through
//
// The store probe runs inside the cache's single-flight build slot, so
// concurrent requests for an uncached model coalesce onto one
// load-or-build whichever tier ends up serving it. A store entry that
// fails to decode — torn write from a crash, version or engine-revision
// skew after an upgrade, bit rot — is evicted and the request falls
// through to a clean rebuild: corruption costs a recompile, never an
// error response.

// loadFromStore tries the persistent tier. It returns nil (never an
// error) when the model must be compiled instead: a miss, a corrupt
// entry, or revision skew all land on the build path.
func (s *Server) loadFromStore(key, reqID string) *yield.Reevaluator {
	st := s.cfg.Store
	if st == nil {
		return nil
	}
	data, err := st.Get(key)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "model store read failed",
				slog.String("request_id", reqID), slog.String("model_key", key), slog.Any("error", err))
		}
		return nil
	}
	re, err := store.Unpack(key, data)
	if err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "evicting undecodable stored model",
			slog.String("request_id", reqID), slog.String("model_key", key), slog.Any("error", err))
		s.cfg.Metrics.Counter("store.decode_errors").Inc()
		st.Evict(key)
		return nil
	}
	return re
}

// saveToStore writes a freshly compiled model through to the
// persistent tier. Failures are logged, not returned: the request
// already has its model, and the store is an optimization.
func (s *Server) saveToStore(key, reqID string, re *yield.Reevaluator) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	data, err := store.Pack(key, re)
	if err == nil {
		err = st.Put(key, data)
	}
	if err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "model store write failed",
			slog.String("request_id", reqID), slog.String("model_key", key), slog.Any("error", err))
	}
}

// warmStart preloads the most recently used stored models into the
// in-memory cache at boot, newest first, up to the cache capacity —
// the first request after a restart hits a warm cache instead of
// recompiling (or even re-decoding) anything. Undecodable entries are
// evicted on the spot; warm-start failures never fail boot.
func (s *Server) warmStart() {
	st := s.cfg.Store
	if st == nil {
		return
	}
	entries, err := st.List()
	if err != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "model store scan failed",
			slog.Any("error", err))
		return
	}
	loaded := 0
	for _, e := range entries {
		if loaded >= s.cfg.CacheEntries {
			break
		}
		if re := s.loadFromStore(e.Key, "warm-start"); re != nil {
			s.cache.putReady(e.Key, re)
			s.cfg.Metrics.Counter("store.warm_loads").Inc()
			loaded++
		}
	}
	if loaded > 0 {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "warm-started model cache",
			slog.Int("models", loaded), slog.Int("stored", len(entries)))
	}
}
